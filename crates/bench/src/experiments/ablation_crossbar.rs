//! Ablation 4 (§3.1.2 / §6): mesh versus a single big crossbar.
//!
//! "Due to physical constraints (e.g., wire length), it is not
//! feasible to build a single large switch ... when there are a large
//! number of engines." We can't simulate wire length, but we can
//! expose the two sides of the trade:
//!
//! * **wire cost** — a crossbar needs `N² × width` crosspoint wiring
//!   versus the mesh's `~4N × width` neighbor links (both per
//!   direction); the ratio grows linearly in N.
//! * **performance** — the idealized crossbar switches any input to
//!   any free output in one cycle; the mesh pays hops and can be
//!   congested. Under uniform traffic the mesh still delivers a good
//!   fraction of the crossbar's throughput, which is the argument for
//!   accepting the mesh's latency to escape the crossbar's wiring.

use noc::topology::Topology;
use packet::{Flit, Message, MessageKind};
use sim_core::time::Cycle;
use std::collections::VecDeque;

use crate::experiments::table3::{bits_after_warmup, eight_flit_traffic, simulate_uniform_load};
use crate::fmt::{f, TableFmt};
use crate::rig::Substrate;

/// An idealized input-queued crossbar: every input can send one flit
/// per cycle to its head-of-line destination if that output is free.
/// (No virtual output queues, so it exhibits classic HOL limiting at
/// ~58% under uniform traffic — the best a *simple* crossbar does.)
#[derive(Debug)]
pub struct Crossbar {
    inputs: Vec<VecDeque<(u32, usize, Message)>>, // (flits_left, dest, msg)
    width_bits: u64,
    delivered_flits: u64,
}

impl Crossbar {
    /// A crossbar with `n` ports of `width_bits`-wide channels.
    #[must_use]
    pub fn new(n: usize, width_bits: u64) -> Crossbar {
        Crossbar {
            inputs: (0..n).map(|_| VecDeque::new()).collect(),
            width_bits,
            delivered_flits: 0,
        }
    }

    /// Advances one cycle; returns messages fully delivered.
    pub fn tick(&mut self) -> Vec<Message> {
        let n = self.inputs.len();
        let mut out_used = vec![false; n];
        let mut done = Vec::new();
        for i in 0..n {
            let Some(&(flits, dst, _)) = self.inputs[i].front() else {
                continue;
            };
            if out_used[dst] {
                continue; // HOL blocking: the input stalls.
            }
            out_used[dst] = true;
            self.delivered_flits += 1;
            if flits <= 1 {
                let (_, _, msg) = self.inputs[i].pop_front().expect("checked");
                done.push(msg);
            } else {
                let entry = self.inputs[i].front_mut().expect("checked");
                entry.0 -= 1;
            }
        }
        done
    }

    /// Flits delivered so far.
    #[must_use]
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }
}

/// The crossbar's backlog is in messages, a message takes as many
/// flits as on a mesh channel of the same width, and whatever the
/// crossbar delivers leaves at once.
impl Substrate for Crossbar {
    fn source_depth(&self, src: usize, _: MessageKind) -> usize {
        self.inputs[src].len()
    }
    fn send(&mut self, src: usize, dst: usize, msg: Message, _: Cycle) {
        let flits = Flit::flits_for(&msg, self.width_bits);
        self.inputs[src].push_back((flits, dst, msg));
    }
    fn step(&mut self, _: Cycle) {
        let _ = self.tick();
    }
}

/// Measures crossbar saturation throughput (bits/cycle) under the
/// traffic Table 3 offers a mesh: uniform random 8-flit messages at
/// `load` flits/cycle/port.
#[must_use]
pub fn crossbar_uniform_load(n: usize, width_bits: u64, load: f64, cycles: u64) -> f64 {
    let mut xbar = Crossbar::new(n, width_bits);
    let traffic = eight_flit_traffic(n, width_bits, load, 8, 42);
    bits_after_warmup(
        &mut xbar,
        &traffic,
        width_bits,
        cycles,
        Crossbar::delivered_flits,
    )
}

/// Regenerates the mesh-vs-crossbar table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 4_000 } else { 40_000 };
    let width = 64u64;
    let mut t = TableFmt::new(
        "Ablation (S3.1.2) — logical switch substrate: 2D mesh vs single crossbar",
        &[
            "Engines (N)",
            "Mesh thrpt (Gbps)",
            "Crossbar thrpt (Gbps)",
            "Mesh wire cost (channel-widths)",
            "Crossbar wire cost",
            "Wire ratio",
        ],
    );
    for k in [4u8, 6, 8] {
        let n = usize::from(k) * usize::from(k);
        let topo = Topology::mesh(k, k);
        let mesh_bits = simulate_uniform_load(topo, width, 1.0, cycles, 11) * 0.5;
        let xbar_bits = crossbar_uniform_load(n, width, 1.0, cycles) * 0.5;
        let mesh_wires = topo.directed_channels();
        let xbar_wires = (n * n) as u64;
        t.row(vec![
            n.to_string(),
            f(mesh_bits, 0),
            f(xbar_bits, 0),
            mesh_wires.to_string(),
            xbar_wires.to_string(),
            format!("{:.1}x", xbar_wires as f64 / mesh_wires as f64),
        ]);
    }
    t.note(
        "Uniform random 8-flit messages at saturation; 64-bit channels at 500MHz. The \
         input-queued crossbar's throughput scales ~0.58 x N x channel (HOL limit) with N^2 \
         crosspoint wiring; the mesh delivers a comparable-order aggregate from ~4N neighbor \
         links — the wiring ratio grows linearly in N, which is the paper's feasibility \
         argument for distributing the logical switch.",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_hits_hol_limit_under_uniform_traffic() {
        // Classic result: input-queued crossbar saturates at ~58.6%.
        let n = 16;
        let bits = crossbar_uniform_load(n, 64, 1.0, 20_000);
        let frac = bits / (n as f64 * 64.0);
        assert!(
            (0.5..0.75).contains(&frac),
            "crossbar uniform saturation {frac}"
        );
    }

    #[test]
    fn crossbar_delivers_messages_in_order_per_input() {
        use bytes::Bytes;
        use packet::MessageId;

        let mut x = Crossbar::new(2, 64);
        // 2 + `payload` bytes on the wire: 16 bytes are two 64-bit flits.
        let m = |id, payload: usize| {
            Message::builder(MessageId(id), MessageKind::Internal)
                .payload(Bytes::from(vec![0u8; payload]))
                .build()
        };
        x.send(0, 1, m(1, 14), Cycle(0));
        x.send(0, 1, m(2, 0), Cycle(0));
        let mut got = Vec::new();
        for _ in 0..5 {
            got.extend(x.tick().into_iter().map(|m| m.id.0));
        }
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn wire_ratio_grows_with_n() {
        let r = |k: u8| {
            let n = u64::from(k) * u64::from(k);
            (n * n) as f64 / Topology::mesh(k, k).directed_channels() as f64
        };
        assert!(r(8) > r(6));
        assert!(r(6) > r(4));
    }
}
