//! Rack-chaos: the fabric fault plane under load — fault intensity ×
//! rack size, with retry, reroute, and member-failover at work.
//!
//! PR 6's rack experiment (`rack.rs`) holds the fabric fault-free;
//! this experiment arms the rack-scale chaos runtime
//! (`faults::FabricFaultPlan` threaded through `crates/fabric`) and
//! measures what the recovery machinery — per-member hop ledgers with
//! exponential-backoff retransmission, receiver-side duplicate
//! suppression, ToR rerouting around down links, and replica/host
//! failover for crashed members — buys back. The sweep crosses ring
//! sizes with seeded fault intensities; every cell drains to
//! quiescence with the fleet conservation-under-faults identity
//! asserted, and the same seed is byte-identical across runs.
//!
//! The **pinned acceptance scenario** (the repo's rack-chaos
//! acceptance criterion, also exercised by the CI `rack-chaos` job) is
//! a 4-NIC ring with an explicit plan: one link flap mid-traffic (the
//! ring reroutes 0→1 traffic the long way around and retransmits what
//! the flap destroyed) plus one member crash with recovery (chains
//! addressed to the crashed member are re-pointed at a same-signature
//! replica; its driver backlog bursts in on recovery). Delivery must
//! come out at exactly 100%.
//!
//! `repro rack-chaos --faults <seed>` reseeds the sweep's generator;
//! `--faults <fabric plan>` runs the explicit plan on the 4-NIC
//! reference ring instead (exit 2 if the plan names components that
//! ring does not have).

use faults::{FabricFaultConfig, FabricFaultPlan, FabricFaultUniverse, FaultArg};
use sim_core::time::Cycle;

use super::rack;
use crate::fmt::{f, TableFmt};

/// Default seed for the sweep's fault generator (`--faults <seed>`
/// overrides it).
const CHAOS_SEED: u64 = 0xFA11;
/// Fault-intensity axis: events scheduled per run.
const INTENSITIES: [u32; 3] = [2, 6, 12];
/// Rack-size axis (1-NIC racks have no fabric to break).
const SIZES: [usize; 3] = [2, 4, 8];
/// The pinned acceptance plan on the 4-NIC reference ring: a link
/// flap mid-traffic plus a member crash that recovers 64 fabric
/// epochs later.
pub const ACCEPTANCE_PLAN: &str = "flap:0-1@6000+2000,mcrash:2@9000+64";

/// Everything one chaos run produces, for table rows and assertions.
#[derive(Debug)]
pub(crate) struct ChaosOutcome {
    /// The drained rack collapsed the same way `repro rack` does.
    pub point: rack::RackPoint,
    /// Fault-plane counters.
    pub stats: fabric::ChaosStats,
    /// Hop-ledger retransmissions (the conservation identity's
    /// `retries` source term).
    pub retries: u64,
    /// Receiver-side suppressed duplicates.
    pub dup_suppressed: u64,
    /// Serialization→delivery latency of crossings that left their
    /// nominal path (reroute or replica redirect).
    pub reroute: Option<sim_core::stats::Summary>,
    /// Cycle the fleet (and its fault plane) went fully quiet.
    pub makespan: Cycle,
}

/// Builds, faults, drains, and collapses one ring. Fleet conservation
/// under faults is asserted inside [`rack::drain`].
///
/// # Errors
/// [`rack::drain`]'s, for a plan whose windows outlast the drain.
pub(crate) fn chaos_outcome(
    nics: usize,
    frames_per_nic: u64,
    cfg: FabricFaultConfig,
) -> Result<ChaosOutcome, fabric::DrainError> {
    let mut fabric = rack::build_rack(nics, frames_per_nic, Some(cfg));
    let makespan = rack::drain(&mut fabric, frames_per_nic)?;
    let point = rack::point_of(&fabric, frames_per_nic * nics as u64);
    let c = fabric.conservation();
    Ok(ChaosOutcome {
        point,
        stats: fabric.chaos_stats().unwrap_or_default(),
        retries: c.retries,
        dup_suppressed: c.dup_suppressed,
        reroute: fabric.reroute_summary(),
        makespan,
    })
}

/// The seeded config for one sweep cell.
fn cell_config(seed: u64, nics: usize, frames_per_nic: u64, intensity: u32) -> FabricFaultConfig {
    let universe = FabricFaultUniverse::new(
        nics,
        rack::ring_pairs(nics),
        Cycle(frames_per_nic * rack::PERIOD),
    );
    FabricFaultConfig::new(FabricFaultPlan::generate(seed, &universe, intensity))
}

/// The pinned acceptance config.
pub(crate) fn acceptance_config() -> FabricFaultConfig {
    FabricFaultConfig::new(FabricFaultPlan::parse(ACCEPTANCE_PLAN).expect("pinned plan parses"))
}

/// One table row from an outcome.
fn row(t: &mut TableFmt, label: String, o: &ChaosOutcome) {
    let goodput = o.point.delivered as f64 * 1000.0 / o.makespan.0.max(1) as f64;
    let reroute = match &o.reroute {
        Some(s) if s.count > 0 => format!("{}/{}", s.p50, s.p99),
        _ => "-".to_string(),
    };
    t.row(vec![
        label,
        o.stats.events_fired.to_string(),
        f(goodput, 2),
        f(o.point.delivered_fraction(), 2),
        format!("{}(-{})", o.retries, o.dup_suppressed),
        (o.stats.replica_rewrites + o.stats.redirected).to_string(),
        o.stats.reroutes.to_string(),
        reroute,
        o.stats.lost_link.to_string(),
    ]);
}

/// Column headers shared by the sweep and the explicit-plan table.
const HEADERS: [&str; 9] = [
    "NICs",
    "Events",
    "Goodput/kcyc",
    "Delivered",
    "Retries(-dup)",
    "Redirects",
    "Reroutes",
    "Reroute p50/p99",
    "Lost",
];

/// The observed window: the pinned acceptance scenario with the
/// tracer/metrics attached, so `--trace`/`--metrics` artifacts carry
/// the `fabric.*` chaos events.
fn observe(ctx: &mut crate::obs::RunCtx, cfg: FabricFaultConfig) {
    let frames: u64 = if ctx.quick { 100 } else { 400 };
    let mut fabric = rack::build_rack(4, frames, Some(cfg));
    fabric.attach_tracer(&ctx.tracer);
    let now = fabric.run_ff(Cycle(0), 10_000).0;
    rack::or_exit(fabric.drain(now));
    if ctx.collect_metrics {
        fabric.export_metrics(&mut ctx.metrics);
    }
}

/// The seeded intensity × size sweep plus the pinned acceptance row.
fn sweep(ctx: &mut crate::obs::RunCtx, seed: u64) -> String {
    let frames = rack::frames_per_nic(ctx.quick);
    let mut t = TableFmt::new(
        "Rack-chaos: seeded fabric faults, intensity x ring size \
         (goodput in frames/kilocycle to full drain; Retries(-dup) = \
         retransmissions(duplicates suppressed); reroute wait in cycles)",
        &HEADERS,
    );
    for nics in SIZES {
        for intensity in INTENSITIES {
            let cfg = cell_config(seed, nics, frames, intensity);
            let o = rack::or_exit(chaos_outcome(nics, frames, cfg));
            row(&mut t, format!("{nics} x{intensity}"), &o);
        }
    }
    let accept = rack::or_exit(chaos_outcome(4, frames, acceptance_config()));
    assert_eq!(
        accept.point.delivered, accept.point.offered,
        "pinned rack-chaos scenario must deliver everything"
    );
    row(&mut t, "4 pinned".to_string(), &accept);
    if ctx.observing() {
        observe(ctx, acceptance_config());
    }
    t.note(format!(
        "Seed 0x{seed:X}: each cell draws its own deterministic plan (link flaps dominate; \
         member crashes capped at one) over that ring's links; every cell drains to quiescence \
         with the fleet conservation-under-faults identity closing exactly, and output is \
         byte-identical across runs. The pinned row is the acceptance \
         scenario `{ACCEPTANCE_PLAN}` — a mid-traffic flap (ring traffic reroutes the long way \
         and destroyed copies retransmit) plus a member crash with recovery (chains re-point at \
         a same-signature replica; the crashed driver's backlog bursts in on recovery) — \
         asserted to deliver 100%. Delivery below 1.00 in a cell means the drain finished with \
         copies host-absorbed (Redirects), never silently lost."
    ));
    t.render()
}

/// `--faults <fabric plan>`: the explicit plan on the 4-NIC reference
/// ring. Exits 2 when the plan names members or links that ring does
/// not have.
fn explicit(ctx: &mut crate::obs::RunCtx, plan: &FabricFaultPlan) -> String {
    let nics = 4;
    if let Err(e) = plan.validate(nics, &rack::ring_pairs(nics)) {
        eprintln!(
            "--faults: {e} (rack-chaos runs explicit plans on the {nics}-NIC reference ring)"
        );
        std::process::exit(2);
    }
    let frames = rack::frames_per_nic(ctx.quick);
    let mut t = TableFmt::new(
        "Rack-chaos: explicit fabric plan on the 4-NIC reference ring",
        &HEADERS,
    );
    let cfg = FabricFaultConfig::new(plan.clone());
    let o = rack::or_exit(chaos_outcome(nics, frames, cfg.clone()));
    row(&mut t, format!("{nics}"), &o);
    if ctx.observing() {
        observe(ctx, cfg);
    }
    t.note(format!(
        "Plan `{plan}` armed over the 4-NIC ring; fleet conservation under faults asserted, \
         output byte-identical across runs."
    ));
    t.render()
}

/// Regenerates the rack-chaos table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    match ctx.faults.clone() {
        Some(FaultArg::Fabric(plan)) => explicit(ctx, &plan),
        Some(FaultArg::Seed(seed)) => sweep(ctx, seed),
        // A NIC-level plan cannot address the fabric; the CLI rejects
        // it for an explicit `rack-chaos` selection, and under
        // `repro all` it is simply not for this experiment.
        Some(FaultArg::Plan(_)) | None => sweep(ctx, CHAOS_SEED),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repo's rack-chaos acceptance criterion: the pinned 4-NIC
    /// flap + member-crash scenario delivers every offered frame via
    /// retry/redirect (conservation is asserted inside the drain), the
    /// chaos actually happened, and the outcome is identical across
    /// runs.
    #[test]
    fn pinned_scenario_delivers_everything_and_is_deterministic() {
        let a = chaos_outcome(4, 300, acceptance_config()).expect("drains");
        assert_eq!(a.point.delivered, a.point.offered, "100% delivery");
        assert_eq!(a.stats.events_fired, 2, "flap + crash both fired");
        assert_eq!(a.stats.member_crashes, 1);
        assert_eq!(a.stats.member_recoveries, 1);
        assert!(a.stats.reroutes > 0, "flap forces the long way around");
        assert!(a.stats.replica_rewrites > 0, "crash forces failover");

        let b = chaos_outcome(4, 300, acceptance_config()).expect("drains");
        assert_eq!(a.point, b.point, "run-to-run");
        assert_eq!(a.stats, b.stats);
        assert_eq!((a.retries, a.dup_suppressed), (b.retries, b.dup_suppressed));
        assert_eq!(a.makespan, b.makespan);
    }

    /// Seeded sweep cells drain and close the identity (asserted in
    /// the drain) at the heaviest intensity on the smallest ring —
    /// the tightest spot for parked traffic.
    #[test]
    fn heavy_seeded_cell_drains_clean() {
        let o = chaos_outcome(2, 300, cell_config(CHAOS_SEED, 2, 300, 12)).expect("drains");
        assert_eq!(o.stats.events_fired, 12);
        assert_eq!(
            o.point.delivered + o.stats.redirected,
            o.point.offered,
            "every frame reaches a wire or the host-fallback sink"
        );
    }

    /// The pinned plan parses and validates against its reference
    /// ring.
    #[test]
    fn acceptance_plan_is_valid_for_its_ring() {
        let plan = FabricFaultPlan::parse(ACCEPTANCE_PLAN).unwrap();
        plan.validate(4, &rack::ring_pairs(4)).unwrap();
        // ...and not for a ring without member 2.
        assert!(plan.validate(2, &rack::ring_pairs(2)).is_err());
    }
}
