//! Robustness: goodput and recovery under a deterministic fault plane.
//!
//! The paper argues for ASIC-style reliability engineering around
//! programmable offloads; this experiment quantifies what PANIC's
//! fault plane buys. A replicated offload pair (`off0`/`off1`, same
//! name stem and class) sits on the chain with an armed watchdog.
//! Seeded [`faults::FaultPlan`]s of increasing intensity are injected
//! — engine crashes, stalls, degradations, scheduler refusals, NoC
//! link slowdowns, credit holds, and ejection drops — and the run
//! reports goodput, descriptor re-issues, detection-to-failover time,
//! and whether the copy-level conservation identity still closes.
//!
//! `repro fault-recovery --faults <seed|spec>` overrides the schedule:
//! a numeric seed replays [`FaultPlan::generate`] at every intensity;
//! an explicit spec (`crash:1@500,...`) runs as one extra pinned row.
//! Same seed, same plan, same trace — byte-for-byte.

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use faults::{FaultArg, FaultPlan, FaultUniverse, WatchdogConfig};
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::message::{Priority, TenantId};
use packet::phv::Field;
use panic_core::nic::{NicConfig, PanicNic};
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::pipeline::PipelineConfig;
use rmt::program::ProgramBuilder;
use rmt::table::{MatchKind, Table};
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use workloads::frames::FrameFactory;

use crate::fmt::{f, TableFmt};

/// Default chaos seed; any `--faults <seed>` replaces it.
pub const DEFAULT_SEED: u64 = 0x00C0_FFEE;

/// Results of one run under a fault plan.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Label for the table row (`"intensity 4"` or `"--faults spec"`).
    pub label: String,
    /// Scheduled fault events.
    pub events: usize,
    /// Frames offered at the wire.
    pub offered: u64,
    /// Frames that egressed on the wire / offered.
    pub goodput: f64,
    /// Descriptors that degraded to host delivery (no live replica).
    pub host_fallback: u64,
    /// Watchdog re-issues after missed deadlines.
    pub reissued: u64,
    /// Descriptors that exhausted their retry budget.
    pub failed: u64,
    /// Late originals suppressed by the dedupe ledger.
    pub duplicates: u64,
    /// Engines the watchdog marked DOWN.
    pub downed: usize,
    /// Mean wedge-detected-to-failover time in cycles (0 = no failover).
    pub mean_ttf: f64,
    /// p50 of descriptor recovery latency (deadline miss -> completion).
    pub recovery_p50: u64,
    /// p99 of descriptor recovery latency.
    pub recovery_p99: u64,
    /// The run drained (quiescent + fault plane settled) in bound.
    pub drained: bool,
    /// The copy-level conservation identity closed.
    pub conserved: bool,
}

/// The watchdog used throughout: tight deadlines and detection windows
/// sized to the 2-cycle offload, so recovery happens inside even a
/// quick run.
#[must_use]
pub fn chaos_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        deadline: Cycles(256),
        max_retries: 4,
        engine_timeout: Cycles(64),
        down_after: 2,
        check_interval: Cycles(16),
    }
}

/// Builds the replicated-offload NIC: `eth0` -> `off0` -> `eth0`, with
/// `off1` as the idle same-stem replica failover re-routes to.
fn replicated_nic() -> (PanicNic, EngineId, EngineId, EngineId) {
    let freq = Freq::mhz(500);
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(3, 3),
        width_bits: 64,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 1,
            depth: 3,
            freq,
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine(
        Box::new(MacEngine::new("eth0", Bandwidth::gbps(100), freq)),
        TileConfig::default(),
    );
    let off0 = b.engine(
        Box::new(NullOffload::new("off0", EngineClass::Asic, Cycles(2))),
        TileConfig::default(),
    );
    let off1 = b.engine(
        Box::new(NullOffload::new("off1", EngineClass::Asic, Cycles(2))),
        TileConfig::default(),
    );
    let _ = b.rmt_portal();
    b.program(
        ProgramBuilder::new("fault-recovery", ParseGraph::standard(6379))
            .stage(Table::new(
                "route",
                MatchKind::Exact(vec![Field::EthType]),
                Action::named(
                    "chain",
                    vec![
                        Primitive::PushHop {
                            engine: off0,
                            slack: SlackExpr::Const(100),
                        },
                        Primitive::PushHop {
                            engine: eth,
                            slack: SlackExpr::Const(200),
                        },
                    ],
                ),
            ))
            .build(),
    );
    b.watchdog(chaos_watchdog());
    (b.build(), eth, off0, off1)
}

/// The fault universe the seeded generator draws from: the two offload
/// engines, faults scheduled in the first three quarters of the feed
/// window so detection and failover land inside the run.
#[must_use]
pub fn universe(off0: EngineId, off1: EngineId, feed_cycles: u64) -> FaultUniverse {
    FaultUniverse::new(vec![off0, off1], Cycle(feed_cycles * 3 / 4))
}

/// Runs one plan against the replicated NIC, optionally observed.
#[must_use]
pub fn run_plan(
    label: &str,
    plan: &FaultPlan,
    frames: u64,
    gap: u64,
    ctx: Option<&mut crate::obs::RunCtx>,
) -> RecoveryPoint {
    let (mut nic, eth, _off0, _off1) = replicated_nic();
    if let Some(ctx) = &ctx {
        nic.attach_tracer(&ctx.tracer);
    }
    nic.enable_faults(plan.clone());

    let mut factory = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    let mut sent = 0u64;
    let bound = frames * gap + 200_000;
    let mut drained = false;
    while now.0 < bound {
        if sent < frames && now.0.is_multiple_of(gap) {
            nic.rx_frame(
                eth,
                factory.min_frame(sent as u16, 80),
                TenantId(1),
                Priority::Normal,
                now,
            );
            sent += 1;
        }
        nic.tick(now);
        now = now.next();
        if sent == frames && nic.is_quiescent() && nic.faults_settled() {
            drained = true;
            break;
        }
    }

    let stats = nic.stats();
    let c = nic.conservation();
    let point = RecoveryPoint {
        label: label.to_string(),
        events: plan.len(),
        offered: frames,
        goodput: stats.tx_wire as f64 / frames.max(1) as f64,
        host_fallback: c.host_fallback,
        reissued: c.reissued,
        failed: stats.failed,
        duplicates: c.duplicates,
        downed: nic.downed_engines().len(),
        mean_ttf: stats.time_to_failover.mean(),
        recovery_p50: stats.recovery.p50(),
        recovery_p99: stats.recovery.p99(),
        drained,
        conserved: drained && c.holds(),
    };
    if let Some(ctx) = ctx {
        if ctx.collect_metrics {
            nic.export_metrics(&mut ctx.metrics);
        }
    }
    point
}

/// Regenerates the fault-recovery sweep.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let (frames, gap) = if ctx.quick { (240, 25) } else { (1200, 25) };
    let feed = frames * gap;
    // The generator only needs the engine ids, which the builder hands
    // out deterministically: eth=0, off0=1, off1=2.
    let (off0, off1) = (EngineId(1), EngineId(2));
    let uni = universe(off0, off1, feed);

    let (seed, pinned_plan) = match ctx.faults.clone() {
        Some(FaultArg::Seed(s)) => (s, None),
        Some(FaultArg::Plan(p)) => {
            if let Err(e) = p.validate(RouterConfig::default().ejection_buffer_flits) {
                eprintln!("--faults: {e}");
                std::process::exit(2);
            }
            (DEFAULT_SEED, Some(p))
        }
        // A fabric-scope spec is rejected by the repro CLI before any
        // experiment runs; a NIC-scope experiment ignores it.
        Some(FaultArg::Fabric(_)) | None => (DEFAULT_SEED, None),
    };

    let mut intensities = vec![0u32, 2, 4, 8];
    if !ctx.quick {
        intensities.push(16);
    }
    let observed_at = intensities.len() - 1; // heaviest row is observed

    let mut rows = Vec::new();
    for (i, &intensity) in intensities.iter().enumerate() {
        let plan = if intensity == 0 {
            FaultPlan::default()
        } else {
            FaultPlan::generate(seed, &uni, intensity)
        };
        let label = format!("intensity {intensity}");
        let obs =
            (i == observed_at && pinned_plan.is_none() && ctx.observing()).then_some(&mut *ctx);
        rows.push(run_plan(&label, &plan, frames, gap, obs));
    }
    if let Some(plan) = &pinned_plan {
        let obs = ctx.observing().then_some(&mut *ctx);
        rows.push(run_plan("--faults spec", plan, frames, gap, obs));
    }

    let title = format!(
        "Robustness — goodput and recovery under seeded fault plans (seed {seed:#x}, \
         {frames} frames)"
    );
    let mut t = TableFmt::new(
        title,
        &[
            "Plan",
            "Events",
            "Goodput",
            "Reissued",
            "Failed",
            "Dups",
            "Downed",
            "Host-fallback",
            "Mean TTF (cyc)",
            "Recovery p50/p99",
            "Conservation",
        ],
    );
    for p in &rows {
        t.row(vec![
            p.label.clone(),
            p.events.to_string(),
            f(p.goodput, 3),
            p.reissued.to_string(),
            p.failed.to_string(),
            p.duplicates.to_string(),
            p.downed.to_string(),
            p.host_fallback.to_string(),
            f(p.mean_ttf, 1),
            format!("{}/{}", p.recovery_p50, p.recovery_p99),
            if p.conserved {
                "holds".to_string()
            } else if p.drained {
                "VIOLATED".to_string()
            } else {
                "did not drain".to_string()
            },
        ]);
    }
    t.note(
        "Goodput = wire egress / offered. TTF = watchdog wedge-detection to failover. \
         Recovery = deadline miss to eventual completion (re-issue through the replica). \
         Conservation: every copy is in exactly one source/sink bucket at drain \
         (see docs/FAULTS.md). Plans are deterministic in (seed, intensity); override \
         with `--faults <seed|spec>`.",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_baseline_has_full_goodput() {
        let p = run_plan("base", &FaultPlan::default(), 120, 25, None);
        assert!(p.drained, "fault-free run drains");
        assert!((p.goodput - 1.0).abs() < 1e-9, "goodput {}", p.goodput);
        assert_eq!(p.reissued, 0);
        assert_eq!(p.downed, 0);
        assert!(p.conserved);
    }

    #[test]
    fn crash_plan_fails_over_and_conserves() {
        let plan = FaultPlan::parse("crash:1@500").unwrap();
        let p = run_plan("crash", &plan, 120, 25, None);
        assert!(p.drained, "crash run drains");
        assert_eq!(p.downed, 1, "watchdog isolates the crashed engine");
        assert!(p.reissued > 0, "wedged descriptors re-issued");
        assert!(p.mean_ttf > 0.0, "failover time measured");
        assert!(p.conserved, "conservation closes under the crash");
        assert!(
            (p.goodput + p.host_fallback as f64 / p.offered as f64 - 1.0).abs() < 1e-9,
            "every frame egressed exactly once: {p:?}"
        );
    }

    /// A hand-written plan gets the generator's kind of budget: fifteen
    /// drops at one tile of a sixteen-credit ejection buffer drain and
    /// conserve; a sixteenth is refused before it can wedge the tile.
    #[test]
    fn hand_written_drops_stay_inside_the_ejection_credit_pool() {
        let drops = |n: u64| {
            let clauses: Vec<String> = (0..n).map(|k| format!("drop:1@{}", 101 + k)).collect();
            FaultPlan::parse(&clauses.join(",")).unwrap()
        };
        let credits = RouterConfig::default().ejection_buffer_flits;
        let fifteen = drops(15);
        assert_eq!(fifteen.validate(credits), Ok(()));
        let p = run_plan("15 drops", &fifteen, 240, 25, None);
        assert!(p.drained && p.conserved, "{p:?}");
        assert!((p.goodput - 1.0).abs() < 1e-9, "goodput {}", p.goodput);
        let refused = drops(16).validate(credits).unwrap_err();
        assert!(
            refused.contains("16 ejection drops at tile 1") && refused.contains("holds 16 credits"),
            "{refused}"
        );
    }

    #[test]
    fn seeded_sweep_is_deterministic() {
        let uni = universe(EngineId(1), EngineId(2), 3000);
        let plan = FaultPlan::generate(DEFAULT_SEED, &uni, 6);
        let a = run_plan("a", &plan, 120, 25, None);
        let b = run_plan("b", &plan, 120, 25, None);
        assert_eq!(a.goodput.to_bits(), b.goodput.to_bits());
        assert_eq!(
            (
                a.reissued,
                a.failed,
                a.duplicates,
                a.downed,
                a.host_fallback
            ),
            (
                b.reissued,
                b.failed,
                b.duplicates,
                b.downed,
                b.host_fallback
            )
        );
        assert!(a.drained && a.conserved, "{a:?}");
    }
}
