//! §3.1.3: the logical scheduler isolates latency-sensitive traffic at
//! a contended engine.
//!
//! The setup is the paper's own example: "Due to possible memory
//! contention from applications on the main CPU, the DMA engine has
//! variable performance and may become a bottleneck. However, the
//! PANIC design is still able to avoid queuing latency for
//! high-priority messages."
//!
//! A bulk tenant hammers the DMA engine with large frames; a latency
//! tenant sends small probes. The only thing that changes between the
//! two runs is the slack profile the RMT program computes: distinct
//! budgets (LSTF) versus a flat budget (plain FIFO — what a scheduler-
//! less NIC gives you).

use engines::dma::{DmaConfig, DmaEngine};
use engines::tile::TileConfig;
use noc::topology::Topology;
use packet::message::{Priority, TenantId};
use panic_core::programs::{host_delivery_program, SlackProfile};
use sched::admission::AdmissionPolicy;
use sim_core::stats::Summary;
use sim_core::time::Cycles;
use workloads::frames::{ports, FrameFactory};

use crate::fmt::TableFmt;
use crate::rig::{feed, panic_builder, Offer};

/// Results of one isolation run.
#[derive(Debug, Clone, Copy)]
pub struct IsolationPoint {
    /// Latency-class delivery latency.
    pub probe: Summary,
    /// Bulk-class delivery latency.
    pub bulk: Summary,
    /// Bulk frames delivered (throughput sanity: isolation must not
    /// starve bulk).
    pub bulk_delivered: u64,
}

/// Runs the contended-DMA experiment with the given slack profile.
#[must_use]
pub fn run_with_profile(profile: SlackProfile, cycles: u64) -> IsolationPoint {
    let (mut b, eth) = panic_builder(Topology::mesh(4, 4), 64);
    // A DMA engine with host memory contention: 30% of operations pay
    // an extra 1500 cycles.
    let dma = b.engine(
        Box::new(DmaEngine::new(
            "dma",
            1,
            DmaConfig {
                base_latency: Cycles(50),
                bytes_per_cycle: 32,
                contention_pct: 25,
                contention_extra: Cycles(400),
            },
            4,
            None,
        )),
        TileConfig {
            queue_capacity: 512,
            admission: AdmissionPolicy::TailDrop,
        },
    );
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    b.program(host_delivery_program(dma, profile));
    let mut dut = (b.build(), eth);

    let mut factory = FrameFactory::for_nic_port(0);
    feed(
        &mut dut,
        cycles,
        0,
        |step, out| {
            // Bulk: a 1 KB frame every 190 cycles — ~0.96 utilization
            // of the DMA engine once contention is averaged in.
            if step % 190 == 0 {
                let src = FrameFactory::lan_client_ip(2);
                let frame = factory.inbound_udp(src, 9, ports::BULK, &[], 1024);
                out.push(Offer::new(TenantId(2), Priority::Normal, frame));
            }
            // Probe: a min frame every 400 cycles.
            if step % 400 == 0 {
                let frame = factory.min_frame(1, ports::ECHO);
                out.push(Offer::new(TenantId(1), Priority::Latency, frame));
            }
        },
        |_| {},
    );
    let stats = dut.0.stats();
    let bulk = stats.latency_of(Priority::Normal).summary();
    IsolationPoint {
        probe: stats.latency_of(Priority::Latency).summary(),
        bulk,
        // The program delivers everything to the host, and bulk is the
        // only normal-priority class: each sample is one bulk frame
        // reaching the host.
        bulk_delivered: bulk.count,
    }
}

/// Regenerates the isolation comparison.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 60_000 } else { 600_000 };
    let lstf = run_with_profile(
        SlackProfile {
            latency: 100,
            normal: 100_000,
        },
        cycles,
    );
    let fifo = run_with_profile(SlackProfile::flat(5_000), cycles);
    let mut t = TableFmt::new(
        "S3.1.3 — probe latency at a contended DMA engine: slack (LSTF) vs FIFO (cycles)",
        &[
            "Scheduler",
            "Probe p50",
            "Probe p99",
            "Probe max",
            "Bulk p99",
            "Bulk delivered",
        ],
    );
    t.row(vec![
        "Slack/LSTF (PANIC)".into(),
        lstf.probe.p50.to_string(),
        lstf.probe.p99.to_string(),
        lstf.probe.max.to_string(),
        lstf.bulk.p99.to_string(),
        lstf.bulk_delivered.to_string(),
    ]);
    t.row(vec![
        "FIFO (flat slack)".into(),
        fifo.probe.p50.to_string(),
        fifo.probe.p99.to_string(),
        fifo.probe.max.to_string(),
        fifo.bulk.p99.to_string(),
        fifo.bulk_delivered.to_string(),
    ]);
    t.note(
        "Same NIC, same traffic, same contended DMA engine; only the slack values computed by \
         the RMT program differ. LSTF lets probes bypass queued bulk transfers (§3.2's \
         'dependent accesses ... bypass other pending DMA requests'); FIFO makes them wait \
         behind every queued kilobyte.",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lstf_protects_probe_tail_latency() {
        let lstf = run_with_profile(
            SlackProfile {
                latency: 100,
                normal: 100_000,
            },
            80_000,
        );
        let fifo = run_with_profile(SlackProfile::flat(5_000), 80_000);
        assert!(
            lstf.probe.count > 100,
            "probes measured: {}",
            lstf.probe.count
        );
        assert!(
            fifo.probe.p99 > lstf.probe.p99 * 2,
            "FIFO p99 {} vs LSTF p99 {}",
            fifo.probe.p99,
            lstf.probe.p99
        );
    }

    #[test]
    fn bulk_is_not_starved_by_isolation() {
        let lstf = run_with_profile(
            SlackProfile {
                latency: 100,
                normal: 100_000,
            },
            80_000,
        );
        let fifo = run_with_profile(SlackProfile::flat(5_000), 80_000);
        // Bulk throughput within ~15% either way: probes are rare.
        let ratio = lstf.bulk_delivered as f64 / fifo.bulk_delivered.max(1) as f64;
        assert!((0.85..1.18).contains(&ratio), "bulk ratio {ratio}");
    }
}
