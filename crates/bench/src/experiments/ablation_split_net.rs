//! Ablation 2 (§3.1, footnote 1): one unified on-chip network versus
//! separate networks per message class.
//!
//! "If there are multiple networks and one is in use while the other
//! is not, then parallel wires are idle. If all of these wires were
//! instead used for a single network, this could not be the case."
//!
//! Same total wiring budget: one 128-bit mesh versus two 64-bit meshes
//! with data messages on network A and control messages on network B
//! (the Tile-GX style). Under a *balanced* mix the split design keeps
//! up; under an asymmetric mix (mostly data) half its wires idle while
//! the unified network turns them into throughput.

use bytes::Bytes;
use noc::network::MeshNetwork;
use noc::topology::Topology;
use packet::{Message, MessageKind};
use sim_core::rng::SimRng;
use sim_core::time::Cycle;

use crate::fmt::{f, TableFmt};
use crate::rig::{mesh, uniform_load, Substrate, Uniform};

/// One 6×6 network for every class, or data frames on the first of two
/// and control messages on the second.
struct ClassNets(Vec<MeshNetwork>);

impl ClassNets {
    fn lane(&self, kind: MessageKind) -> usize {
        usize::from(kind != MessageKind::EthernetFrame).min(self.0.len() - 1)
    }
}

impl Substrate for ClassNets {
    fn source_depth(&self, src: usize, kind: MessageKind) -> usize {
        Substrate::source_depth(&self.0[self.lane(kind)], src, kind)
    }
    fn send(&mut self, src: usize, dst: usize, msg: Message, now: Cycle) {
        let lane = self.lane(msg.kind);
        Substrate::send(&mut self.0[lane], src, dst, msg, now);
    }
    fn step(&mut self, now: Cycle) {
        self.0.iter_mut().for_each(|net| net.step(now));
    }
}

/// Delivered bits/cycle for a `data_share`/control mix at saturation,
/// on either one `2w`-bit network or two `w`-bit networks.
#[must_use]
pub fn run_config(unified: bool, data_share: f64, cycles: u64) -> f64 {
    let topo = Topology::mesh6x6();
    let mut nets = ClassNets(if unified {
        vec![mesh(topo, 128)]
    } else {
        vec![mesh(topo, 64), mesh(topo, 64)]
    });
    // Saturating offered load: every node has a message due every
    // cycle, and the source cap keeps the queues bounded.
    let traffic = Uniform {
        nodes: topo.nodes(),
        msg_rate: 1.0,
        cap: 32,
        payload: Bytes::from(vec![0u8; 126]), // 128B on wire: 8 or 16 flits
        seed: 31,
    };
    let class = |rng: &mut SimRng| {
        if rng.gen_bool(data_share) {
            MessageKind::EthernetFrame
        } else {
            MessageKind::Internal
        }
    };
    uniform_load(&mut nets, &traffic, cycles, class, |_, _| {});
    nets.0
        .iter()
        .map(|net| net.stats().delivered_flits as f64 * net.config().width_bits as f64)
        .sum::<f64>()
        / cycles as f64
}

/// Regenerates the unified-vs-split table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 4_000 } else { 30_000 };
    let mut t = TableFmt::new(
        "Ablation (S3.1 fn.1) — one 128-bit network vs two 64-bit class networks (6x6, saturated)",
        &[
            "Data share",
            "Unified (bits/cycle)",
            "Split (bits/cycle)",
            "Unified advantage",
        ],
    );
    for share in [0.5f64, 0.8, 0.95, 1.0] {
        let uni = run_config(true, share, cycles);
        let split = run_config(false, share, cycles);
        t.row(vec![
            format!("{:.0}%", share * 100.0),
            f(uni, 0),
            f(split, 0),
            format!("{:.2}x", uni / split.max(1.0)),
        ]);
    }
    t.note(
        "Equal total channel wiring. At a balanced mix both designs use all wires; as the mix \
         skews toward one class, the split design's other network idles while the unified \
         network keeps every wire busy — the paper's footnote-1 argument against Tile-GX-style \
         multiple networks.",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_wins_under_asymmetric_load() {
        let uni = run_config(true, 1.0, 6_000);
        let split = run_config(false, 1.0, 6_000);
        assert!(
            uni > split * 1.5,
            "unified {uni} should far exceed split {split} at 100% data"
        );
    }

    #[test]
    fn split_is_competitive_under_balanced_load() {
        let uni = run_config(true, 0.5, 6_000);
        let split = run_config(false, 0.5, 6_000);
        let ratio = uni / split;
        assert!(
            (0.8..1.4).contains(&ratio),
            "balanced-mix ratio {ratio} (uni {uni}, split {split})"
        );
    }
}
