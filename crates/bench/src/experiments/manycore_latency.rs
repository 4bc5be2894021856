//! §2.3.2 / Figure 2b: the manycore NIC's orchestration latency.
//!
//! "Firestone et al. report that processing a packet in one of the
//! cores on a manycore NIC adds a latency of 10 µs or more." The same
//! light request stream runs through a 16-core manycore NIC (5000
//! cycles = 10 µs of software per packet at 500 MHz) and through
//! PANIC, where the pipeline + NoC + hardware engine path is all
//! hardware.

use baselines::manycore::{ManycoreConfig, ManycoreNic};
use engines::engine::NullOffload;
use engines::tile::TileConfig;
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::Priority;
use panic_core::programs::chain_program;
use sim_core::stats::Summary;
use sim_core::time::Cycles;
use workloads::frames::FrameFactory;

use crate::fmt::TableFmt;
use crate::rig::{feed, panic_builder, Offer};

/// Orchestration cost: 10 µs at 500 MHz.
pub const ORCHESTRATION_CYCLES: u64 = 5000;
/// Hardware offload service time used in both designs.
const HW_SERVICE: u64 = 4;

/// The offered load, for both designs: 1 request / 500 cycles — ~62%
/// utilization of the manycore's core pool (16 cores x 5000
/// cycles/packet), so the measurement is the orchestration floor plus
/// moderate queueing, not unbounded overload.
fn offered_load() -> impl FnMut(u64, &mut Vec<Offer>) {
    let mut factory = FrameFactory::for_nic_port(0);
    move |step, out| {
        if step % 500 == 0 {
            out.push(Offer::plain(factory.min_frame((step % 50) as u16, 80)));
        }
    }
}

fn hw_engine() -> Box<NullOffload> {
    Box::new(NullOffload::new(
        "hw",
        EngineClass::Asic,
        Cycles(HW_SERVICE),
    ))
}

/// Request latency through the manycore NIC.
#[must_use]
pub fn manycore_latency(cycles: u64) -> Summary {
    let mut nic = ManycoreNic::new(ManycoreConfig {
        cores: 16,
        orchestration_cycles: ORCHESTRATION_CYCLES,
        engines: vec![(hw_engine(), None)],
        core_queue_capacity: 256,
    });
    feed(&mut nic, cycles, 0, offered_load(), |_| {});
    nic.latency_of(Priority::Normal).summary()
}

/// Request latency through PANIC with the same hardware engine.
#[must_use]
pub fn panic_latency(cycles: u64) -> Summary {
    let (mut b, eth) = panic_builder(Topology::mesh(4, 4), 64);
    let hw = b.engine(hw_engine(), TileConfig::default());
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    b.program(chain_program(&[hw], eth, Some(500)));
    let mut dut = (b.build(), eth);
    feed(&mut dut, cycles, 0, offered_load(), |_| {});
    dut.0.stats().latency_of(Priority::Normal).summary()
}

/// Regenerates the latency comparison.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 40_000 } else { 400_000 };
    let mc = manycore_latency(cycles);
    let pk = panic_latency(cycles);
    let mut t = TableFmt::new(
        "Fig 2b claim — per-packet latency: manycore orchestration vs PANIC (500MHz cycles)",
        &["Design", "p50", "p99", "p50 (us)", "p99 (us)"],
    );
    t.row(vec![
        "Manycore (16 cores, 10us software)".into(),
        mc.p50.to_string(),
        mc.p99.to_string(),
        us(mc.p50),
        us(mc.p99),
    ]);
    t.row(vec![
        "PANIC (pipeline + NoC + engine)".into(),
        pk.p50.to_string(),
        pk.p99.to_string(),
        us(pk.p50),
        us(pk.p99),
    ]);
    t.note(format!(
        "Speedup at p50: {:.1}x. The manycore floor is the embedded-CPU orchestration the \
         paper quotes from Firestone et al.; PANIC replaces it with a pipeline pass plus \
         mesh hops.",
        mc.p50 as f64 / pk.p50.max(1) as f64
    ));
    t.render()
}

fn us(cycles: u64) -> String {
    format!("{:.2}", cycles as f64 * 0.002)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both rows call `offered_load()`; it must yield the same frames
    /// each time.
    #[test]
    fn both_designs_are_offered_the_same_frames() {
        let a = crate::rig::offered(50_000, offered_load());
        assert_eq!(a.len(), 100);
        assert_eq!(a, crate::rig::offered(50_000, offered_load()));
    }

    #[test]
    fn manycore_floor_is_orchestration() {
        let mc = manycore_latency(50_000);
        assert!(mc.p50 >= ORCHESTRATION_CYCLES, "p50 {}", mc.p50);
    }

    #[test]
    fn panic_is_order_of_magnitude_faster() {
        let mc = manycore_latency(50_000);
        let pk = panic_latency(50_000);
        assert!(
            mc.p50 > pk.p50 * 10,
            "manycore {} vs panic {}",
            mc.p50,
            pk.p50
        );
        // PANIC stays below 1 us (500 cycles) on this light load.
        assert!(pk.p99 < 500, "PANIC p99 {}", pk.p99);
    }
}
