//! §4.2 claim (b): chaining over the NoC scales with chain length;
//! chaining by revisiting the heavyweight pipeline does not.
//!
//! Both designs face the same offered load (0.25 packets/cycle across
//! two ports — what two 128-bit injection channels can carry for
//! ~112-byte messages) and the same chain lengths. PANIC pays one
//! pipeline pass and `L` mesh hops per packet, with chains spread
//! across eight engine instances (Table 3's uniform-traffic
//! assumption); the pipeline-switched design pays `L+1` pipeline
//! passes. With `F × P = 2` packets/cycle of pipeline capacity,
//! pipeline switching collapses beyond `(L+1) × 0.25 > 2`, i.e.
//! `L > 7`, while PANIC stays flat.

use baselines::rmt_only::{ComplexPolicy, RmtOnlyConfig, RmtOnlyNic};
use bytes::Bytes;
use packet::headers::{
    build_esp_frame, ethertype, EspHeader, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr,
};
use panic_core::scenarios::chain::{ChainScenario, ChainScenarioConfig};
use rmt::pipeline::PipelineConfig;

use crate::fmt::{f, TableFmt};
use crate::rig::{feed, Offer};

fn esp_frame() -> Bytes {
    build_esp_frame(
        EthernetHeader {
            dst: MacAddr::for_port(0),
            src: MacAddr::for_port(1),
            ethertype: ethertype::IPV4,
        },
        Ipv4Header {
            tos: 0,
            total_len: 0,
            ident: 0,
            ttl: 64,
            protocol: 0,
            src: Ipv4Addr::new(9, 0, 0, 1),
            dst: Ipv4Addr::new(9, 0, 0, 2),
        },
        EspHeader { spi: 1, seq: 1 },
        &[0u8; 22],
    )
}

/// Delivered fraction for the pipeline-switched design at `passes`
/// pipeline traversals per packet, offered 0.25 packets/cycle.
#[must_use]
pub fn pipeline_switched_fraction(passes: u32, cycles: u64) -> f64 {
    let mut nic = RmtOnlyNic::new(RmtOnlyConfig {
        pipeline: PipelineConfig::panic_default(),
        complex: ComplexPolicy::Recirculate { passes },
    });
    let frame = esp_frame();
    let mut delivered = 0u64;
    let offered = feed(
        &mut nic,
        cycles,
        0,
        |step, out| {
            if step % 4 == 0 {
                out.push(Offer::plain(frame.clone()));
            }
        },
        |_| delivered += 1,
    );
    delivered as f64 / offered as f64
}

/// Delivered fraction for PANIC at `chain_len` NoC-switched hops,
/// same offered load (0.25 packets/cycle across 2 ports).
#[must_use]
pub fn panic_fraction(chain_len: usize, cycles: u64) -> f64 {
    let mut s = ChainScenario::new(ChainScenarioConfig {
        chain_len,
        // Table 3's larger configuration: 8x8 mesh, 128-bit channels,
        // with enough engine instances and portals that chains spread
        // (the uniform-traffic assumption).
        topology: noc::topology::Topology::mesh8x8(),
        num_offloads: 24,
        portals: 6,
        width_bits: 128,
        offered_fraction: 0.5, // 0.125 msgs/cycle/port of the 0.25/cycle min-frame rate
        ..ChainScenarioConfig::default()
    });
    s.run(cycles);
    let r = s.report();
    r.delivered as f64 / r.offered as f64
}

/// Regenerates the crossover table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let cycles = if quick { 8_000 } else { 60_000 };
    let mut t = TableFmt::new(
        "S4.2 — chain length vs delivered fraction: NoC-switched (PANIC) vs pipeline-switched",
        &[
            "Chain length",
            "PANIC (NoC chains)",
            "Pipeline-switched (L+1 passes)",
        ],
    );
    for len in [0usize, 1, 2, 4, 6, 8, 12] {
        let panic_frac = panic_fraction(len, cycles);
        let rmt_frac = pipeline_switched_fraction(len as u32 + 1, cycles);
        t.row(vec![len.to_string(), f(panic_frac, 3), f(rmt_frac, 3)]);
    }
    t.note(
        "Offered: min-size frames at 0.25 packets/cycle. Pipeline capacity F x P = 2/cycle: \
         pipeline-switched chaining collapses once (L+1) x 0.25 > 2, i.e. L > 7. PANIC chains \
         ride the 8x8 mesh across 24 engine instances and only degrade when the mesh itself \
         runs out (L = 12 needs ~13 traversals/packet — past the Table 3 budget at this load).",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_switching_collapses_beyond_crossover() {
        let ok = pipeline_switched_fraction(4, 20_000); // L=3
        let bad = pipeline_switched_fraction(13, 20_000); // L=12
        assert!(ok > 0.95, "L=3 fraction {ok}");
        assert!(bad < 0.75, "L=12 fraction {bad}");
    }

    #[test]
    fn panic_sustains_short_chains_at_full_rate() {
        let frac = panic_fraction(2, 12_000);
        assert!(frac > 0.9, "PANIC chain-2 fraction {frac}");
    }

    #[test]
    fn panic_sustains_long_chains_where_pipeline_switching_cannot() {
        let panic = panic_fraction(8, 20_000);
        let rmt = pipeline_switched_fraction(9, 20_000);
        assert!(panic > 0.85, "PANIC at L=8: {panic}");
        // L=8 is just past the pipeline-switched crossover (L > 7), so
        // the gap is opening rather than fully open; it widens with L.
        assert!(
            panic > rmt + 0.08,
            "PANIC {panic} should beat pipeline-switched {rmt} at L=8"
        );
    }
}
