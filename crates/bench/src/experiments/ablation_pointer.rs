//! Ablation 5 (§6): pass full packets between engines, or pass
//! pointers into a shared packet buffer?
//!
//! One of the paper's explicit open questions. We compare the two on
//! the mesh under identical chain traffic: full mode carries the whole
//! frame per hop; pointer mode carries a 16-byte descriptor (+ chain
//! header) and charges the frame's bytes only on the first (buffer
//! write) and last (buffer read) traversals. Pointer mode trades NoC
//! bandwidth for shared-buffer capacity and bank bandwidth — this
//! experiment quantifies the NoC side of that trade.

use bytes::Bytes;
use noc::topology::Topology;
use packet::MessageKind;

use crate::fmt::{f, TableFmt};
use crate::rig::{mesh, uniform_load, Uniform};

/// One measurement.
#[derive(Debug, Clone, Copy)]
pub struct PointerPoint {
    /// Messages delivered per cycle across the mesh.
    pub delivered_per_cycle: f64,
    /// Mean NoC latency per traversal (cycles).
    pub mean_latency: f64,
}

/// Simulates chain-hop traffic: messages of `bytes_on_wire` bytes
/// between uniformly random tiles at `msg_rate` messages/cycle/node.
#[must_use]
pub fn run_mode(bytes_on_wire: usize, msg_rate: f64, cycles: u64) -> PointerPoint {
    let mut net = mesh(Topology::mesh6x6(), 64);
    let traffic = Uniform {
        nodes: Topology::mesh6x6().nodes(),
        msg_rate,
        cap: 64,
        payload: Bytes::from(vec![0u8; bytes_on_wire]),
        seed: 3,
    };
    uniform_load(
        &mut net,
        &traffic,
        cycles,
        |_| MessageKind::Internal,
        |_, _| {},
    );
    let stats = net.stats();
    PointerPoint {
        delivered_per_cycle: stats.delivered_messages as f64 / cycles as f64,
        mean_latency: stats.latency.mean(),
    }
}

/// Regenerates the pointer-vs-packet table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 6_000 } else { 60_000 };
    let mut t = TableFmt::new(
        "Ablation (S6) — chain hops carrying full packets vs 16B descriptors (6x6, 64-bit)",
        &[
            "Rate (msgs/cycle/node)",
            "Full 256B: msgs/cycle / mean lat",
            "Full 64B: msgs/cycle / mean lat",
            "Pointer 16B: msgs/cycle / mean lat",
        ],
    );
    for rate in [0.01f64, 0.03, 0.06, 0.12] {
        let big = run_mode(256, rate, cycles);
        let small = run_mode(64, rate, cycles);
        let ptr = run_mode(16, rate, cycles);
        t.row(vec![
            f(rate, 2),
            format!(
                "{} / {}",
                f(big.delivered_per_cycle, 2),
                f(big.mean_latency, 0)
            ),
            format!(
                "{} / {}",
                f(small.delivered_per_cycle, 2),
                f(small.mean_latency, 0)
            ),
            format!(
                "{} / {}",
                f(ptr.delivered_per_cycle, 2),
                f(ptr.mean_latency, 0)
            ),
        ]);
    }
    t.note(
        "Pointer descriptors sustain message rates full frames cannot (a 256B frame is 33 \
         flits on a 64-bit channel; a descriptor is 3) and cut per-hop latency by the \
         serialization difference. The price — shared-buffer port bandwidth and the two \
         full-size buffer transfers at chain entry/exit — is outside the NoC and is why the \
         paper leaves this as an open question rather than an obvious win.",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointers_sustain_higher_rates() {
        let rate = 0.12;
        let full = run_mode(256, rate, 10_000);
        let ptr = run_mode(16, rate, 10_000);
        assert!(
            ptr.delivered_per_cycle > full.delivered_per_cycle * 1.5,
            "ptr {} vs full {}",
            ptr.delivered_per_cycle,
            full.delivered_per_cycle
        );
    }

    #[test]
    fn pointers_cut_latency() {
        let full = run_mode(256, 0.01, 10_000);
        let ptr = run_mode(16, 0.01, 10_000);
        assert!(
            ptr.mean_latency + 10.0 < full.mean_latency,
            "ptr {} vs full {}",
            ptr.mean_latency,
            full.mean_latency
        );
    }
}
