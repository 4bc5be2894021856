//! §6 open question: "What is the best way to simultaneously provide
//! lossless forwarding to ensure that important messages like DMA
//! requests for descriptors are never dropped while also providing
//! lossy forwarding to ensure that other messages (e.g., packets from
//! a DOS attack) are dropped as needed?"
//!
//! This repo's answer, measured here: admission is *per message class*
//! at every scheduling queue. Control-class messages (DMA requests/
//! completions, PCIe events) are always refused-with-backpressure when
//! a queue is full — the NoC's credit flow control holds them upstream
//! losslessly — while data-class messages fall under the queue's lossy
//! policy. A DoS flood therefore takes the drops, and every descriptor
//! request survives.

use bytes::Bytes;
use engines::engine::NullOffload;
use engines::tile::{Emit, EngineTile, TileConfig};
use packet::chain::{ChainHeader, EngineClass, EngineId, Slack};
use packet::message::{Message, MessageId, MessageKind};
use sched::admission::AdmissionPolicy;
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Cycles};
use std::collections::VecDeque;

use crate::fmt::{f, TableFmt};

/// One run's outcome.
#[derive(Debug, Clone, Copy)]
pub struct LosslessPoint {
    /// Control messages offered / completed.
    pub control_offered: u64,
    /// Control messages that made it through the engine.
    pub control_done: u64,
    /// Flood frames offered.
    pub flood_offered: u64,
    /// Flood frames that made it through.
    pub flood_done: u64,
    /// Flood frames dropped at the queue.
    pub flood_dropped: u64,
}

/// Floods one engine tile (service 20 cycles, 32-deep lossy queue)
/// with `flood_rate` frames/cycle while control messages arrive at
/// 1/200. The "upstream" holds refused messages exactly as the NoC's
/// ejection buffer + credits would.
#[must_use]
pub fn run_flood(flood_rate: f64, cycles: u64) -> LosslessPoint {
    let mut tile = EngineTile::new(
        EngineId(0),
        Box::new(NullOffload::new("victim", EngineClass::Asic, Cycles(20))),
        TileConfig {
            queue_capacity: 32,
            admission: AdmissionPolicy::TailDrop,
        },
    );
    let mut rng = SimRng::new(77);
    let mut upstream: VecDeque<Message> = VecDeque::new();
    let mut point = LosslessPoint {
        control_offered: 0,
        control_done: 0,
        flood_offered: 0,
        flood_done: 0,
        flood_dropped: 0,
    };
    let mut next_id = 0u64;
    let chain = ChainHeader::uniform(&[EngineId(0)], Slack(1_000)).unwrap();
    for now in 0..cycles {
        // Arrivals land in the upstream buffer (the NoC side).
        if rng.gen_bool(flood_rate) {
            upstream.push_back(
                Message::builder(MessageId(next_id), MessageKind::EthernetFrame)
                    .payload(Bytes::from_static(&[0u8; 64]))
                    .chain(chain.clone())
                    .build(),
            );
            next_id += 1;
            point.flood_offered += 1;
        }
        if rng.gen_bool(1.0 / 200.0) {
            upstream.push_back(
                Message::builder(MessageId(next_id), MessageKind::DmaRead)
                    .chain(chain.clone())
                    .build(),
            );
            next_id += 1;
            point.control_offered += 1;
        }
        // The tile accepts one message per cycle when its RX slot is
        // free — exactly the NoC ejection interface.
        if tile.rx_ready() {
            if let Some(m) = upstream.pop_front() {
                tile.accept(m, Cycle(now));
            }
        }
        for emit in tile.tick(Cycle(now)) {
            match emit {
                Emit::To(_, m) | Emit::ToPipeline(m) => {
                    if m.kind == MessageKind::DmaRead {
                        point.control_done += 1;
                    } else {
                        point.flood_done += 1;
                    }
                }
                Emit::Egress(_, _) | Emit::Consumed(_) => {}
            }
        }
    }
    point.flood_dropped = tile.drops();
    point
}

/// Regenerates the lossless/lossy coexistence table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 60_000 } else { 400_000 };
    let mut t = TableFmt::new(
        "S6 open question — lossless control + lossy data at one overloaded engine",
        &[
            "Flood rate (pkts/cycle)",
            "Control delivered",
            "Flood delivered",
            "Flood drops",
        ],
    );
    for rate in [0.02f64, 0.05, 0.1, 0.25] {
        let p = run_flood(rate, cycles);
        t.row(vec![
            f(rate, 2),
            format!(
                "{}/{} ({:.0}%)",
                p.control_done,
                p.control_offered,
                100.0 * p.control_done as f64 / p.control_offered.max(1) as f64
            ),
            format!("{:.2}", p.flood_done as f64 / p.flood_offered.max(1) as f64),
            p.flood_dropped.to_string(),
        ]);
    }
    t.note(
        "Engine capacity is 0.05 msgs/cycle; floods above that overload it. Per-class \
         admission keeps every control (DMA) message — full queues refuse them with \
         backpressure, which the lossless NoC holds upstream — while the flood takes all \
         the drops. (A handful of control messages can be in flight at the end of a run; \
         delivered counts are within that in-flight window of offered.)",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_survives_dos_flood() {
        let p = run_flood(0.25, 100_000);
        // All control messages delivered except those still queued at
        // the end (queue depth <= 32 plus the 20-cycle service).
        assert!(
            p.control_offered - p.control_done <= 40,
            "control {}/{}",
            p.control_done,
            p.control_offered
        );
        // The flood is mostly shed.
        assert!(
            (p.flood_done as f64) < p.flood_offered as f64 * 0.3,
            "flood {}/{}",
            p.flood_done,
            p.flood_offered
        );
        assert!(p.flood_dropped > 1000);
    }

    #[test]
    fn light_load_delivers_both_classes() {
        let p = run_flood(0.02, 100_000);
        assert_eq!(p.flood_dropped, 0);
        assert!(p.flood_done >= p.flood_offered - 40);
        assert!(p.control_done >= p.control_offered - 5);
    }
}
