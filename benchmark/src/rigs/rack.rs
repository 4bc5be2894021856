//! `rack_ring4*`: a ring of complete NICs behind a simulated ToR.
//!
//! A frozen copy of `repro rack`'s shape, rebuilt from the public
//! `FabricBuilder` / `NicBuilder` / `chain_program` API so that later
//! edits to the experiment cannot silently move the benchmark: each
//! member is a 4×4 mesh with 128-bit channels carrying a MAC, a
//! crc-class offload (8 cycles/packet), two RMT portals and 32 vNICs;
//! every chain's tail (crc, then MAC egress) runs on the *next*
//! member, so every frame crosses one ring link (latency 48 cycles,
//! 16 B/cycle, 32 credits). Each member is offered one min-size frame
//! per 120 cycles; the frame's tenant is a Zipf(0.99) draw over the
//! member's vNICs from the seed.

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use fabric::{Fabric, FabricBuilder, LinkSpec, PeriodicDriver};
use faults::{FabricFaultConfig, FabricFaultPlan};
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::{Priority, TenantId};
use packet::EngineId;
use panic_core::nic::{NicBuilder, NicConfig, PanicNic};
use panic_core::programs::chain_program;
use rmt::pipeline::PipelineConfig;
use sim_core::stats::Histogram;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use tenancy::{TenancyConfig, VNicSpec};
use trace::{MetricsRegistry, Tracer};
use workloads::frames::FrameFactory;
use workloads::zipf::{PartitionedZipf, Zipf};

use super::{Counters, Mode, Outcome, Rig};
use crate::spans::Recorder;

/// Global tenant key space striped across the rack.
const TENANT_SPACE: usize = 1_000_000;
/// vNICs instantiated per member.
pub const VNICS: usize = 32;
/// One frame per member every this many cycles.
pub const PERIOD: u64 = 120;
/// Ring link propagation latency, cycles (also the epoch length).
pub const LINK_LATENCY: u64 = 48;
const LINK_BYTES_PER_CYCLE: u64 = 16;
const LINK_CREDITS: usize = 32;
const CRC_SERVICE: u64 = 8;
/// The pinned chaos plan: a link flap mid-traffic plus a member crash
/// that recovers 64 fabric epochs later (`repro rack-chaos`'s
/// acceptance scenario).
pub const CHAOS_PLAN: &str = "flap:0-1@6000+2000,mcrash:2@9000+64";
/// Drain budget: chunks of this many cycles until the fleet and its
/// fault plane are quiet.
const DRAIN_CHUNK: u64 = 10_000;
const DRAIN_CHUNKS: u32 = 64;

/// Whether, and how, the fabric fault plane is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// No fault plane.
    Off,
    /// Armed with an empty plan (must cost nothing and change nothing).
    ArmedEmpty,
    /// Armed with [`CHAOS_PLAN`].
    Chaos,
}

/// Shape of one rack rig.
#[derive(Debug, Clone, Copy)]
pub struct RackShape {
    /// Members on the ring (1 = the same program resolving locally).
    pub members: usize,
    /// Worker threads for the per-epoch member loop.
    pub threads: usize,
    /// Fault plane.
    pub faults: Faults,
}

/// The member-unique compact id of member `member`'s rank-`rank` vNIC.
fn tenant_id(member: usize, rank: usize) -> TenantId {
    TenantId((member * VNICS + rank + 1) as u16)
}

/// One member: MAC uplink, crc offload, two portals, the cross-NIC
/// chain, and the member's vNIC stripe.
fn member(i: usize, members: usize, seed: u64) -> (NicBuilder, EngineId) {
    let freq = Freq::PANIC_DEFAULT;
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(4, 4),
        width_bits: 128,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 2,
            depth: 18,
            freq,
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine(
        Box::new(MacEngine::new("eth", Bandwidth::gbps(100), freq)),
        TileConfig::default(),
    );
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
    // Every member declares the same engines in the same order, so
    // this member's ids address its neighbour's engines too.
    let next = (i + 1) % members;
    b.program(chain_program(
        &[crc, EngineId::remote(next, crc)],
        EngineId::remote(next, eth),
        Some(5_000),
    ));
    let stripe = PartitionedZipf::new(seed, i as u64, members as u64, TENANT_SPACE / members, 0.99);
    let vnics = (0..VNICS)
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
    b.tenancy(TenancyConfig::new(vnics).shared_credits(256));
    (b, eth)
}

/// The plain-data spec of one ring member, for the `verify` kernel.
#[must_use]
pub fn member_spec(seed: u64) -> panic_verify::NicSpec {
    member(0, 4, seed).0.to_spec()
}

/// A built ring and its clock.
pub struct RackRig {
    fabric: Fabric,
    shape: RackShape,
    mode: Mode,
    now: Cycle,
    skipped: u64,
    offered_total: u64,
}

impl std::fmt::Debug for RackRig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RackRig")
            .field("shape", &self.shape)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl RackRig {
    /// Builds the ring. Each member's driver offers frames for
    /// `horizon` cycles and then stops, which is what lets the drain
    /// reach quiescence.
    #[must_use]
    pub fn build(seed: u64, horizon: u64, shape: RackShape) -> RackRig {
        let frames_per_member = horizon / PERIOD;
        let mut fb = FabricBuilder::new();
        let mut uplinks = Vec::new();
        for i in 0..shape.members {
            let (b, eth) = member(i, shape.members, seed);
            uplinks.push((fb.member(b, eth), eth));
        }
        if shape.members > 1 {
            let pairs: std::collections::BTreeSet<(usize, usize)> = (0..shape.members)
                .map(|i| {
                    let next = (i + 1) % shape.members;
                    (i.min(next), i.max(next))
                })
                .collect();
            for (a, b) in pairs {
                fb.link_pair(
                    a,
                    b,
                    LinkSpec::new(0, 0)
                        .latency(LINK_LATENCY)
                        .bytes_per_cycle(LINK_BYTES_PER_CYCLE)
                        .credits(LINK_CREDITS),
                );
            }
        }
        match shape.faults {
            Faults::Off => {}
            Faults::ArmedEmpty => {
                fb.fault_plane(FabricFaultConfig::new(FabricFaultPlan::new(Vec::new())));
            }
            Faults::Chaos => fb.fault_plane(FabricFaultConfig::new(
                FabricFaultPlan::parse(CHAOS_PLAN).expect("pinned plan parses"),
            )),
        }
        for (i, (mi, eth)) in uplinks.into_iter().enumerate() {
            let zipf = Zipf::new(VNICS, 0.99);
            let mut rng = sim_core::rng::SimRng::new(seed).derive(&format!("rack-traffic-{i}"));
            let mut factory = FrameFactory::for_nic_port(i as u32);
            fb.driver(
                mi,
                Box::new(PeriodicDriver::new(
                    (i as u64) * 7,
                    PERIOD,
                    frames_per_member,
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
        let mut fabric = fb.build();
        fabric.set_threads(shape.threads);
        RackRig {
            fabric,
            shape,
            mode: Mode::Default,
            now: Cycle(0),
            skipped: 0,
            offered_total: frames_per_member * shape.members as u64,
        }
    }

    fn run(&mut self, cycles: u64) {
        match self.mode {
            Mode::Default => {
                let (now, skipped) = self.fabric.run_ff(self.now, cycles);
                self.now = now;
                self.skipped += skipped;
            }
            Mode::Event => {
                let (now, skipped) = self.fabric.run_event(self.now, cycles);
                self.now = now;
                self.skipped += skipped;
            }
            Mode::Stepped => self.now = self.fabric.run(self.now, cycles),
        }
    }

    fn quiet(&self) -> bool {
        self.fabric.is_quiescent() && !self.fabric.faults_pending()
    }
}

impl Rig for RackRig {
    fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    fn attach_tracer(&mut self, tracer: &Tracer) {
        self.fabric.attach_tracer(tracer);
    }

    fn advance(&mut self, cycles: u64, _rec: &Recorder) {
        self.run(cycles);
    }

    fn drain(&mut self, _rec: &Recorder) {
        for _ in 0..DRAIN_CHUNKS {
            if self.quiet() {
                break;
            }
            self.run(DRAIN_CHUNK);
        }
    }

    fn counters(&self) -> Counters {
        let members = (0..self.fabric.len()).map(|i| self.fabric.member(i).stats());
        let (mut offered, mut delivered) = (0, 0);
        for s in members {
            offered += s.rx_frames;
            delivered += s.tx_wire;
        }
        // The run modes report member-level skips plus each fleet-wide
        // jump once; a fleet jump spares every member those cycles.
        let fleet = self.fabric.stats().fleet_skipped;
        Counters {
            now: self.now.0,
            offered,
            delivered,
            skipped: self.skipped + fleet * (self.fabric.len() as u64 - 1),
        }
    }

    fn outcome(&self) -> Outcome {
        let mut latency = Histogram::new();
        for i in 0..self.fabric.len() {
            latency.merge(self.fabric.member(i).stats().latency_of(Priority::Normal));
        }
        let c = self.counters();
        let mut gate_failures = Vec::new();
        if !self.quiet() {
            gate_failures.push("fleet not quiescent after the bounded drain".to_string());
        }
        let cons = self.fabric.conservation();
        if !cons.holds() {
            gate_failures.push(format!("fleet conservation violated:\n{cons}"));
        }
        for i in 0..self.fabric.len() {
            let nic = self.fabric.member(i);
            for rank in 0..VNICS {
                if let Some(tc) = nic.tenant_conservation(tenant_id(i, rank)) {
                    if !tc.holds() {
                        gate_failures.push(format!(
                            "tenant conservation violated on member {i} vNIC {rank}: {tc:?}"
                        ));
                    }
                }
            }
        }
        if c.offered != self.offered_total {
            gate_failures.push(format!(
                "drivers offered {} of {} scheduled frames",
                c.offered, self.offered_total
            ));
        }
        Outcome {
            attempted: self.offered_total,
            failed: self.offered_total - c.delivered.min(self.offered_total),
            latency: latency.summary(),
            gate_failures,
        }
    }

    fn export_metrics(&self, m: &mut MetricsRegistry) {
        self.fabric.export_metrics(m);
    }

    fn members(&self) -> u64 {
        self.fabric.len() as u64
    }

    fn extra_counts(&self) -> Vec<(&'static str, f64)> {
        let s = self.fabric.stats();
        let cons = self.fabric.conservation();
        let chaos = self.fabric.chaos_stats().unwrap_or_default();
        vec![
            ("fabric.epochs", s.epochs as f64),
            ("fabric.forwarded", s.forwarded as f64),
            ("fabric.backpressured_rounds", s.backpressured as f64),
            ("fabric.fleet_skipped", s.fleet_skipped as f64),
            ("faults.retries", cons.retries as f64),
            ("faults.dup_suppressed", cons.dup_suppressed as f64),
            ("faults.reroutes", chaos.reroutes as f64),
            (
                "faults.redirected",
                (chaos.redirected + chaos.replica_rewrites) as f64,
            ),
        ]
    }
}
