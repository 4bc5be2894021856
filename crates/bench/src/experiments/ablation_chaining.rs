//! Ablation 1 (§3.1.2): lightweight per-engine lookup tables versus
//! returning to the heavyweight pipeline after *every* hop.
//!
//! Both runs use the same PANIC NIC, mesh, and engines. The "chains"
//! program computes the whole chain once; the "recirculate" program
//! hands out one hop at a time and asks for another pipeline pass
//! after each — which is what a NIC without per-engine tables must do.
//! The cost shows up in two places: pipeline passes per packet (each
//! one burns an `F × P` slot) and end-to-end latency (each pass pays
//! the 18-cycle pipeline plus two extra mesh traversals).

use engines::engine::NullOffload;
use engines::tile::TileConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::message::Priority;
use packet::phv::Field;
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::program::{ProgramBuilder, RmtProgram};
use rmt::table::{MatchKey, MatchKind, Table, TableEntry};
use sim_core::time::Cycles;
use workloads::frames::FrameFactory;

use crate::fmt::{f, TableFmt};
use crate::rig::{feed, panic_builder, Offer};

/// How hops are handed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainMode {
    /// One pipeline pass computes the whole chain (PANIC).
    LookupTables,
    /// Each pass hands out one hop and recirculates (§3.1.2's "it
    /// would be necessary to traverse the pipeline after every hop").
    RecirculateEachHop,
}

/// Results of one run.
#[derive(Debug, Clone, Copy)]
pub struct ChainingPoint {
    /// Pipeline passes per delivered packet.
    pub passes_per_packet: f64,
    /// Delivered / offered.
    pub delivered_fraction: f64,
    /// p99 end-to-end latency (cycles).
    pub p99: u64,
}

/// The recirculating program: stage keyed on `MetaPasses` hands out
/// hop `k` on pass `k`, recirculating until the chain is done.
fn recirc_program(offloads: &[EngineId], egress: EngineId) -> RmtProgram {
    let slack = SlackExpr::Const(5_000);
    let mut table = Table::new(
        "hop-by-pass",
        MatchKind::Exact(vec![Field::MetaPasses]),
        Action::named(
            "egress",
            vec![Primitive::PushHop {
                engine: egress,
                slack,
            }],
        ),
    );
    for (k, &engine) in offloads.iter().enumerate() {
        table.insert(TableEntry {
            key: MatchKey::Exact(vec![k as u64]),
            priority: 0,
            action: Action::named(
                "one-hop",
                vec![Primitive::PushHop { engine, slack }, Primitive::Recirculate],
            ),
        });
    }
    ProgramBuilder::new("recirc-per-hop", ParseGraph::standard(6379))
        .stage(table)
        .build()
}

/// The one-pass program: the whole chain at once.
fn chain_once_program(offloads: &[EngineId], egress: EngineId) -> RmtProgram {
    let slack = SlackExpr::Const(5_000);
    let mut prims: Vec<Primitive> = offloads
        .iter()
        .map(|&engine| Primitive::PushHop { engine, slack })
        .collect();
    prims.push(Primitive::PushHop {
        engine: egress,
        slack,
    });
    ProgramBuilder::new("chain-once", ParseGraph::standard(6379))
        .stage(Table::new(
            "all",
            MatchKind::Exact(vec![Field::EthType]),
            Action::named("chain", prims),
        ))
        .build()
}

/// Runs one configuration: `chain_len` hops at `offered` pkts/cycle.
#[must_use]
pub fn run_mode(mode: ChainMode, chain_len: usize, period: u64, cycles: u64) -> ChainingPoint {
    let (mut b, eth) = panic_builder(Topology::mesh(5, 5), 128);
    let offloads: Vec<EngineId> = (0..chain_len)
        .map(|i| {
            b.engine(
                Box::new(NullOffload::new(
                    format!("o{i}"),
                    EngineClass::Asic,
                    Cycles(1),
                )),
                TileConfig::default(),
            )
        })
        .collect();
    for _ in 0..6 {
        let _ = b.rmt_portal();
    }
    b.program(match mode {
        ChainMode::LookupTables => chain_once_program(&offloads, eth),
        ChainMode::RecirculateEachHop => recirc_program(&offloads, eth),
    });
    let mut dut = (b.build(), eth);

    let mut factory = FrameFactory::for_nic_port(0);
    let mut delivered = 0u64;
    let offered = feed(
        &mut dut,
        cycles,
        0,
        |step, out| {
            if step % period == 0 {
                out.push(Offer::plain(factory.min_frame((step % 256) as u16, 80)));
            }
        },
        |_| delivered += 1,
    );
    let nic = &dut.0;
    ChainingPoint {
        passes_per_packet: nic.pipeline().stats().accepted as f64 / delivered.max(1) as f64,
        delivered_fraction: delivered as f64 / offered.max(1) as f64,
        p99: nic.stats().latency_of(Priority::Normal).quantile(0.99),
    }
}

/// Regenerates the ablation table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 30_000 } else { 200_000 };
    let mut t = TableFmt::new(
        "Ablation (S3.1.2) — lightweight lookup tables vs recirculate-per-hop",
        &[
            "Chain length",
            "Tables: passes/pkt / frac / p99",
            "Recirculate: passes/pkt / frac / p99",
        ],
    );
    // Offered 1/16 pkts/cycle: light enough that neither design
    // saturates, so the columns isolate the *per-packet cost* of
    // recirculation (passes and latency) rather than queueing collapse
    // (the chain-crossover experiment covers the collapse).
    for len in [1usize, 3, 6, 9] {
        let tables = run_mode(ChainMode::LookupTables, len, 16, cycles);
        let recirc = run_mode(ChainMode::RecirculateEachHop, len, 16, cycles);
        t.row(vec![
            len.to_string(),
            format!(
                "{:.2} / {} / {}",
                tables.passes_per_packet,
                f(tables.delivered_fraction, 3),
                tables.p99
            ),
            format!(
                "{:.2} / {} / {}",
                recirc.passes_per_packet,
                f(recirc.delivered_fraction, 3),
                recirc.p99
            ),
        ]);
    }
    t.note(
        "Same NIC, same mesh, same engines; only the program differs. Without per-engine \
         lookup tables every hop costs a full pipeline pass (L+1 passes/packet) and two extra \
         mesh traversals; with them a packet is classified exactly once.",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_tables_use_one_pass() {
        let p = run_mode(ChainMode::LookupTables, 3, 10, 20_000);
        assert!((p.passes_per_packet - 1.0).abs() < 0.05, "{p:?}");
        assert!(p.delivered_fraction > 0.95, "{p:?}");
    }

    #[test]
    fn recirculation_pays_l_plus_one_passes_and_latency() {
        let tables = run_mode(ChainMode::LookupTables, 6, 16, 30_000);
        let recirc = run_mode(ChainMode::RecirculateEachHop, 6, 16, 30_000);
        assert!(
            (recirc.passes_per_packet - 7.0).abs() < 0.5,
            "recirc passes {}",
            recirc.passes_per_packet
        );
        assert!(
            recirc.p99 > tables.p99 + 100,
            "recirc p99 {} vs tables p99 {}",
            recirc.p99,
            tables.p99
        );
    }
}
