//! Rack-scale fabric: cross-NIC offload chains over a simulated ToR.
//!
//! The paper's closing argument is that once every NIC is a switch,
//! the rack is a two-level switching fabric — so the offload-chain
//! abstraction should survive the hop across the ToR. This experiment
//! scales a ring of 1/2/4/8 member NICs (`crates/fabric`): every
//! member's RMT pipeline encodes a chain whose tail runs on the *next*
//! member (`crc` here, then that member's MAC egress), so at N ≥ 2
//! every packet takes exactly one inter-NIC hop through a
//! credit-windowed, latency- and serialization-modelled link. At
//! N = 1 the same remote-encoded program resolves locally (a remote
//! hop addressed to the NIC it is already on never leaves the mesh),
//! which keeps per-packet work constant across the sweep — the
//! latency delta between rows is the fabric crossing, nothing else.
//!
//! Tenancy scales by **striping, not instantiation**: the fleet's
//! tenant key space is [`TENANT_SPACE`] (10⁶) keys, carved into
//! disjoint per-member stripes by `workloads::PartitionedZipf`
//! (partition *i* of *N* owns every key ≡ *i* mod *N*). Each member
//! instantiates vNICs only for its stripe's [`ACTIVE`] hottest ranks —
//! runtime state stays O(active) per NIC while addressing the full
//! million-key space, which is how §3.2's "thousands of tenants"
//! extrapolates to a rack.
//!
//! Everything is seeded and periodic: `repro rack` is deterministic
//! down to the byte — members share nothing within an epoch and cross
//! only in the boundary exchange (see docs/FABRIC.md).

use engines::engine::NullOffload;
use engines::tile::TileConfig;
use fabric::{Fabric, FabricBuilder, LinkSpec, PeriodicDriver};
use faults::{FabricFaultConfig, FabricFaultPlan, FaultArg};
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::{Priority, TenantId};
use packet::EngineId;
use panic_core::nic::{NicBuilder, PanicNic};
use panic_core::programs::chain_program;
use sim_core::stats::{Histogram, Summary};
use sim_core::time::{Cycle, Cycles};
use tenancy::{TenancyConfig, VNicSpec};
use workloads::frames::FrameFactory;
use workloads::zipf::{PartitionedZipf, Zipf};

use crate::fmt::{f, TableFmt};
use crate::rig::panic_builder;

/// Global tenant key space striped across the rack (the "toward 10⁶
/// vNICs" axis: addressable, not instantiated).
pub const TENANT_SPACE: usize = 1_000_000;
/// vNICs actually instantiated per member — the stripe's hottest ranks.
pub const ACTIVE: usize = 32;
/// CRC-class engine service time, cycles/packet.
const CRC_SERVICE: u64 = 8;
/// One frame per member every this many cycles.
pub(crate) const PERIOD: u64 = 120;
/// Inter-NIC link: propagation latency (cycles), ToR port rate
/// (bytes/cycle), credit window (messages in flight).
pub(crate) const LINK_LATENCY: u64 = 48;
const LINK_RATE: u64 = 16;
const LINK_CREDITS: u64 = 32;
/// Seed for the tenant-stripe permutations and traffic skew.
const SEED: u64 = 0xD1CE;

/// One row of the rack sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackPoint {
    /// End-to-end latency (cycles, injection at the home NIC → wire at
    /// the egress NIC), merged across members.
    pub latency: Summary,
    /// Frames offered fleet-wide.
    pub offered: u64,
    /// Frames that reached a wire egress.
    pub delivered: u64,
    /// Inter-NIC link crossings.
    pub crossings: u64,
    /// Boundary rounds stalled on a full credit window.
    pub backpressured: u64,
    /// vNICs instantiated fleet-wide (vs [`TENANT_SPACE`] addressable).
    pub vnics: u64,
}

impl RackPoint {
    /// Delivered / offered.
    #[must_use]
    pub fn delivered_fraction(&self) -> f64 {
        self.delivered as f64 / self.offered.max(1) as f64
    }
}

/// One member NIC: MAC uplink, CRC-class offload, two RMT portals,
/// and a chain whose tail runs on member `(i + 1) % nics`.
fn member(i: usize, nics: usize) -> (NicBuilder, EngineId) {
    let (mut b, eth) = panic_builder(Topology::mesh(4, 4), 128);
    let crc = b.engine(
        Box::new(NullOffload::new(
            "crc",
            EngineClass::Asic,
            Cycles(CRC_SERVICE),
        )),
        TileConfig {
            queue_capacity: 256,
            ..TileConfig::default()
        },
    );
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    let next = (i + 1) % nics;
    // Engine ids are declaration-ordered and every member declares the
    // same engines, so this member's crc/eth ids address its neighbor's
    // too. At nics == 1, remote(0, ..) resolves locally on member 0.
    b.program(chain_program(
        &[crc, EngineId::remote(next, crc)],
        EngineId::remote(next, eth),
        Some(5_000),
    ));
    b.tenancy(stripe_tenancy(i, nics));
    (b, eth)
}

/// The vNIC table for member `i`'s stripe: compact per-member tenant
/// ids, each pinned to one global key from the stripe's hot set.
fn stripe_tenancy(i: usize, nics: usize) -> TenancyConfig {
    let stripe = PartitionedZipf::new(SEED, i as u64, nics as u64, TENANT_SPACE / nics, 0.99);
    let specs = (0..ACTIVE)
        .map(|rank| {
            let key = stripe.key_of_rank(rank);
            VNicSpec::new(
                tenant_id(i, rank),
                format!("stripe{i}-key{key}"),
                if rank == 0 { 4 } else { 1 },
            )
            .credit_quota(16)
        })
        .collect();
    TenancyConfig::new(specs).shared_credits(256)
}

/// Member-unique compact id for the stripe's rank-`rank` tenant
/// (`TenantId` is 16-bit; the million-key space is addressed through
/// the stripe permutation, not the id).
fn tenant_id(member: usize, rank: usize) -> TenantId {
    TenantId((member * ACTIVE + rank + 1) as u16)
}

/// The ring's deduplicated unordered link pairs (a 2-NIC ring has one
/// pair, not two); also the link universe the fabric fault generator
/// and `--faults` spec validation draw from.
pub(crate) fn ring_pairs(nics: usize) -> Vec<(usize, usize)> {
    let pairs: std::collections::BTreeSet<(usize, usize)> = (0..nics)
        .map(|i| {
            let next = (i + 1) % nics;
            (i.min(next), i.max(next))
        })
        .collect();
    pairs.into_iter().collect()
}

/// Builds the N-member ring fabric with its per-member drivers,
/// optionally arming the fabric fault plane.
pub(crate) fn build_rack(
    nics: usize,
    frames_per_nic: u64,
    faults: Option<FabricFaultConfig>,
) -> Fabric {
    let mut fb = FabricBuilder::new();
    let mut uplinks = Vec::new();
    for i in 0..nics {
        let (b, eth) = member(i, nics);
        uplinks.push((fb.member(b, eth), eth));
    }
    if nics > 1 {
        for (a, b) in ring_pairs(nics) {
            fb.link_pair(
                a,
                b,
                LinkSpec::new(0, 0)
                    .latency(LINK_LATENCY)
                    .bytes_per_cycle(LINK_RATE)
                    .credits(LINK_CREDITS as usize),
            );
        }
    }
    if let Some(cfg) = faults {
        fb.fault_plane(cfg);
    }
    for (i, (mi, eth)) in uplinks.into_iter().enumerate() {
        // Traffic skew: Zipf over the member's ACTIVE hot ranks, on a
        // per-member RNG stream derived from the shared seed.
        let zipf = Zipf::new(ACTIVE, 0.99);
        let mut rng = sim_core::rng::SimRng::new(SEED).derive(&format!("rack-traffic-{i}"));
        let mut factory = FrameFactory::for_nic_port(i as u32);
        fb.driver(
            mi,
            Box::new(PeriodicDriver::new(
                (i as u64) * 7,
                PERIOD,
                frames_per_nic,
                move |nic: &mut PanicNic, now: Cycle, k: u64| {
                    let rank = zipf.sample(&mut rng);
                    nic.rx_frame(
                        eth,
                        factory.min_frame((k % 50) as u16, 80),
                        tenant_id(i, rank),
                        Priority::Normal,
                        now,
                    );
                },
            )),
        );
    }
    fb.build()
}

/// Frames each member injects over the sweep.
pub(crate) fn frames_per_nic(quick: bool) -> u64 {
    if quick {
        300
    } else {
        2_000
    }
}

/// Runs a built rack to quiescence — including any armed fault plane's
/// deferred work (retry deadlines, parked copies, member recoveries) —
/// and asserts the fleet conservation identity. Returns the drain
/// cycle.
///
/// # Errors
/// The fabric's [`fabric::DrainError`] when a fault window outlasts the
/// drain budget.
pub(crate) fn drain(fabric: &mut Fabric, frames_per_nic: u64) -> Result<Cycle, fabric::DrainError> {
    let horizon = (frames_per_nic + 2) * PERIOD + 50_000;
    let now = fabric.run_ff(Cycle(0), horizon).0;
    let now = fabric.drain(now)?;
    let c = fabric.conservation();
    assert!(c.holds(), "fleet conservation violated:\n{c}");
    Ok(now)
}

/// Unwraps a drained result, or takes the `repro` exit for a `--faults`
/// plan that parses and lints clean but holds work past any drain: the
/// reason on stderr, status 2.
pub(crate) fn or_exit<T>(drained: Result<T, fabric::DrainError>) -> T {
    drained.unwrap_or_else(|e| {
        eprintln!("--faults: {e}");
        std::process::exit(2)
    })
}

/// Runs one rack configuration to quiescence.
#[must_use]
pub fn rack_point(nics: usize, quick: bool) -> RackPoint {
    let frames = frames_per_nic(quick);
    let mut fabric = build_rack(nics, frames, None);
    drain(&mut fabric, frames).expect("a fault-free rack drains");
    point_of(&fabric, frames * nics as u64)
}

/// Collapses a drained fabric into a [`RackPoint`].
pub(crate) fn point_of(fabric: &Fabric, offered: u64) -> RackPoint {
    let mut latency = Histogram::new();
    let mut delivered = 0;
    for i in 0..fabric.len() {
        let stats = fabric.member(i).stats();
        latency.merge(stats.latency_of(Priority::Normal));
        delivered += stats.tx_wire;
    }
    RackPoint {
        latency: latency.summary(),
        offered,
        delivered,
        crossings: fabric.stats().forwarded,
        backpressured: fabric.stats().backpressured,
        vnics: (fabric.len() * ACTIVE) as u64,
    }
}

/// How `repro rack --faults <seed|spec>` lands on the sweep.
enum RackFaults {
    /// No fault plane (no `--faults`, or a NIC-level plan that a
    /// fabric experiment has no use for — under `repro all` the same
    /// argument still reaches `fault-recovery`).
    Off,
    /// Seed for the deterministic fabric generator, re-drawn per row
    /// over that row's ring universe.
    Seed(u64),
    /// Explicit fabric plan, armed on every row whose topology names
    /// all of its components.
    Plan(FabricFaultPlan),
}

/// Events the seeded generator schedules per armed row.
const CHAOS_INTENSITY: u32 = 6;

/// Resolves `--faults` for the rack sweep. Exits 2 when an explicit
/// fabric plan names components absent even from the largest rack in
/// the sweep — the clear-message contract of the `repro` CLI.
fn rack_faults(ctx: &crate::obs::RunCtx) -> RackFaults {
    match &ctx.faults {
        None | Some(FaultArg::Plan(_)) => RackFaults::Off,
        Some(FaultArg::Seed(seed)) => RackFaults::Seed(*seed),
        Some(FaultArg::Fabric(plan)) => {
            let largest = 8;
            if let Err(e) = plan.validate(largest, &ring_pairs(largest)) {
                eprintln!("--faults: {e} (the rack sweep tops out at {largest} members)");
                std::process::exit(2);
            }
            RackFaults::Plan(plan.clone())
        }
    }
}

/// The fault plane for one sweep row: `None` when the row runs
/// fault-free (1-NIC racks have no fabric to break; an explicit plan
/// skips rows whose topology lacks a named component).
fn row_faults(mode: &RackFaults, nics: usize, frames_per_nic: u64) -> Option<FabricFaultConfig> {
    if nics < 2 {
        return None;
    }
    match mode {
        RackFaults::Off => None,
        RackFaults::Seed(seed) => {
            let universe = faults::FabricFaultUniverse::new(
                nics,
                ring_pairs(nics),
                Cycle(frames_per_nic * PERIOD),
            );
            Some(FabricFaultConfig::new(FabricFaultPlan::generate(
                *seed,
                &universe,
                CHAOS_INTENSITY,
            )))
        }
        RackFaults::Plan(plan) => plan
            .validate(nics, &ring_pairs(nics))
            .ok()
            .map(|()| FabricFaultConfig::new(plan.clone())),
    }
}

/// Regenerates the rack-fabric table.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let quick = ctx.quick;
    let mode = rack_faults(ctx);
    let armed = !matches!(mode, RackFaults::Off);
    let frames = frames_per_nic(quick);
    let mut t = if armed {
        TableFmt::new(
            "Rack-scale fabric under `--faults`: cross-NIC chains over a faulty ToR \
             (latency in cycles, injection -> wire)",
            &[
                "NICs",
                "Faults",
                "p50/p99",
                "Crossings",
                "Retries",
                "Rewrites",
                "Lost",
                "Delivered",
            ],
        )
    } else {
        TableFmt::new(
            "Rack-scale fabric: cross-NIC chains over a simulated ToR \
             (per-NIC load held constant; latency in cycles, injection -> wire)",
            &[
                "NICs",
                "vNICs (of 10^6 keys)",
                "p50/p99",
                "Crossings",
                "Backpressured",
                "Delivered",
            ],
        )
    };
    for nics in [1usize, 2, 4, 8] {
        if armed {
            let mut fabric = build_rack(nics, frames, row_faults(&mode, nics, frames));
            or_exit(drain(&mut fabric, frames));
            let p = point_of(&fabric, frames * nics as u64);
            let cs = fabric.chaos_stats().unwrap_or_default();
            let c = fabric.conservation();
            t.row(vec![
                nics.to_string(),
                cs.events_fired.to_string(),
                format!("{}/{}", p.latency.p50, p.latency.p99),
                p.crossings.to_string(),
                c.retries.to_string(),
                cs.replica_rewrites.to_string(),
                cs.lost_link.to_string(),
                f(p.delivered_fraction(), 2),
            ]);
        } else {
            let p = rack_point(nics, quick);
            t.row(vec![
                nics.to_string(),
                p.vnics.to_string(),
                format!("{}/{}", p.latency.p50, p.latency.p99),
                p.crossings.to_string(),
                p.backpressured.to_string(),
                f(p.delivered_fraction(), 2),
            ]);
        }
    }
    // The observed window: a 2-NIC rack with the tracer/metrics
    // attached.
    if ctx.observing() {
        let frames: u64 = if quick { 100 } else { 400 };
        let mut fabric = build_rack(2, frames, row_faults(&mode, 2, frames));
        fabric.attach_tracer(&ctx.tracer);
        or_exit(drain(&mut fabric, frames));
        if ctx.collect_metrics {
            fabric.export_metrics(&mut ctx.metrics);
        }
    }
    if armed {
        t.note(
            "Fault plane armed from `--faults`: a seed draws a per-row plan from the \
             deterministic fabric generator over that row's ring; an explicit fabric plan \
             (flap:/lag:/freeze:/part:/mcrash:/mloss: clauses) is armed on every row whose \
             topology names all of its components (other rows run fault-free; 1 NIC has no \
             fabric to break). Retries are ledger retransmissions, Rewrites are chains \
             re-pointed at a replica of a crashed member, Lost are copies destroyed on a \
             downed link (all re-sent). Fleet conservation under faults is asserted on every \
             row; same seed + same plan is byte-identical."
                .to_string(),
        );
        return t.render();
    }
    t.note(format!(
        "Every member's chain tail (crc + MAC egress) runs on the next member over a \
         {LINK_LATENCY}-cycle, {LINK_RATE} B/cycle, {LINK_CREDITS}-credit link; at 1 NIC the \
         same remote-encoded program resolves locally, so per-packet work is constant and the \
         latency step from row 1 to row 2 is the ToR crossing itself. Tenants are striped, not \
         instantiated: each member owns a disjoint PartitionedZipf stripe of the 10^6-key space \
         and instantiates vNICs for its {ACTIVE} hottest keys. Fleet conservation is asserted \
         on every row; output is byte-identical."
    ));
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: chains cross, and everything offered
    /// reaches a wire with fleet conservation closing (asserted inside
    /// `rack_point`).
    #[test]
    fn two_nic_rack_delivers_everything_via_crossings() {
        let p = rack_point(2, true);
        assert_eq!(p.delivered, p.offered, "lossless rack");
        assert_eq!(p.crossings, p.offered, "every frame crosses once");
    }

    /// One NIC takes no crossings — the remote-encoded tail resolves
    /// locally.
    #[test]
    fn one_nic_rack_stays_local() {
        let p = rack_point(1, true);
        assert_eq!(p.crossings, 0);
        assert_eq!(p.delivered, p.offered);
    }

    /// Striping is disjoint: no global key appears in two members'
    /// stripes, while every member's hot set addresses the full space.
    #[test]
    fn stripes_are_disjoint() {
        let a = PartitionedZipf::new(SEED, 0, 4, TENANT_SPACE / 4, 0.99);
        let b = PartitionedZipf::new(SEED, 1, 4, TENANT_SPACE / 4, 0.99);
        for rank in 0..ACTIVE {
            assert!(a.owns(a.key_of_rank(rank)));
            assert!(!b.owns(a.key_of_rank(rank)));
        }
    }
}
