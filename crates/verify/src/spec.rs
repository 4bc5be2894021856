//! The declarative NIC description the verifier lints.
//!
//! The simulator's runtime types (boxed offloads, live queues, event
//! wheels) are not inspectable after construction, so verification runs
//! against a plain-data [`NicSpec`] extracted *before* the NIC is
//! built. `panic-core`'s builder produces one via `to_spec()`;
//! standalone tools (the `panic-lint` CLI, tests) can also assemble one
//! by hand.
//!
//! Everything here is ordinary data with public fields: the point of
//! the spec is that every check can see the whole configuration.

use faults::WatchdogConfig;
use noc::{Coord, RouterConfig, Topology};
use packet::{EngineClass, EngineId};
use rmt::{PipelineConfig, RmtProgram};
use sched::AdmissionPolicy;
use sim_core::{Bandwidth, Cycles, Freq};

/// Which routing function the mesh uses. The verifier proves (or
/// refutes) deadlock freedom from the channel-dependency graph this
/// induces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// Dimension-ordered X-then-Y routing — what [`noc::Router`]
    /// implements. Its channel-dependency graph is acyclic, so the
    /// checker certifies it deadlock-free on any mesh.
    XyDimensionOrdered,
    /// Fully adaptive minimal routing with no extra virtual channels —
    /// a hypothetical alternative the checker *rejects*: any minimal
    /// adaptive function without VC escape paths closes turn cycles on
    /// meshes of at least 2×2 (Dally & Seitz / Glass & Ni turn model).
    FullyAdaptiveMinimal,
}

/// Scheduler-level parameters shared by every engine's local queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedSpec {
    /// Width of the PIFO rank field in bits. The paper's PIFO block
    /// \[34\] stores ranks in fixed-width SRAM words; ranks past
    /// `2^width − 1` alias and break LSTF ordering.
    pub rank_width_bits: u32,
    /// The scheduling horizon: the largest cycle count at which the
    /// simulation still enqueues ranked messages (`arrival + slack`
    /// deadlines must fit in the rank field up to this point).
    pub horizon_cycles: u64,
    /// DRR quantum in bytes, when a deficit round-robin stage fronts
    /// the PIFO. `None` when pure LSTF is used.
    pub drr_quantum: Option<u64>,
}

impl Default for SchedSpec {
    fn default() -> SchedSpec {
        SchedSpec {
            // u48 rank SRAM word, as in the PIFO block's reference RTL.
            rank_width_bits: 48,
            // A generous default horizon: ~2s of simulated time at
            // 500 MHz, far past any shipped experiment.
            horizon_cycles: 1 << 30,
            drr_quantum: None,
        }
    }
}

/// One engine (compute tile) on the mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSpec {
    /// Logical on-NIC address.
    pub id: EngineId,
    /// Human name, used in diagnostics.
    pub name: String,
    /// Broad engine class (Figure 3c legend).
    pub class: EngineClass,
    /// True for RMT portal tiles (heavyweight-pipeline access points).
    pub is_portal: bool,
    /// Explicit placement, or `None` for automatic row-major placement.
    pub coord: Option<Coord>,
    /// Nominal per-message service time, used by the slack-feasibility
    /// check (PV003). Zero means "unknown / data-dependent".
    pub service_cycles: Cycles,
    /// Local scheduling-queue capacity in messages.
    pub queue_capacity: usize,
    /// What the local queue does when full.
    pub admission: AdmissionPolicy,
    /// Declared lossless: the engine must never drop a message. Only
    /// [`AdmissionPolicy::Backpressure`] honors that (PV303).
    pub lossless: bool,
}

impl EngineSpec {
    /// An engine spec with the common defaults: auto placement,
    /// unknown service time, a 64-entry tail-drop queue, lossy.
    #[must_use]
    pub fn new(id: EngineId, name: impl Into<String>, class: EngineClass) -> EngineSpec {
        EngineSpec {
            id,
            name: name.into(),
            class,
            is_portal: class == EngineClass::Rmt,
            coord: None,
            service_cycles: Cycles(0),
            queue_capacity: 64,
            admission: AdmissionPolicy::TailDrop,
            lossless: false,
        }
    }
}

/// One periodic traffic source feeding the NIC, summarized for the
/// `PV5xx` performance lints. Populated by the scenarios' `lint_spec`
/// builders; an empty [`NicSpec::arrivals`] list means "workload
/// unknown" and keeps the `PV5xx` checks silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalSpec {
    /// Human name for diagnostics (port, tenant).
    pub name: String,
    /// The smallest inter-arrival gap the source's accumulator can
    /// produce, in cycles: `den / num` for a `num/den` per-cycle rate,
    /// `u64::MAX` for a zero-rate source (see `docs/PERF.md`).
    pub min_gap_cycles: u64,
}

impl ArrivalSpec {
    /// A deterministic `num/den`-per-cycle source.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    #[must_use]
    pub fn periodic(name: impl Into<String>, num: u64, den: u64) -> ArrivalSpec {
        assert!(den > 0, "zero denominator");
        ArrivalSpec {
            name: name.into(),
            min_gap_cycles: den.checked_div(num).unwrap_or(u64::MAX),
        }
    }
}

/// The whole NIC, as data.
#[derive(Debug, Clone)]
pub struct NicSpec {
    /// Mesh shape.
    pub topology: Topology,
    /// NoC channel width in bits (Table 3's "Bit Width").
    pub width_bits: u64,
    /// NoC clock frequency.
    pub freq: Freq,
    /// Per-port Ethernet line rate.
    pub line_rate: Bandwidth,
    /// Number of Ethernet ports feeding the mesh.
    pub ports: u32,
    /// Router buffer/credit sizing.
    pub router: RouterConfig,
    /// Heavyweight RMT pipeline configuration.
    pub pipeline: PipelineConfig,
    /// Routing function (for the deadlock proof).
    pub routing: RoutingKind,
    /// Largest Ethernet frame the NIC must carry, in bytes.
    pub max_frame_bytes: u64,
    /// Per-table entry capacity of the RMT match stages.
    pub table_entry_capacity: usize,
    /// Scheduler parameters.
    pub sched: SchedSpec,
    /// All engines/tiles, portals included.
    pub engines: Vec<EngineSpec>,
    /// The RMT program, when known statically.
    pub program: Option<RmtProgram>,
    /// Watchdog / failover configuration, when the fault plane is
    /// armed (`None` on fault-free NICs; enables the PV4xx checks).
    pub watchdog: Option<WatchdogConfig>,
    /// The traffic sources driving the NIC, when known statically
    /// (empty = unknown; enables the PV5xx fast-forward checks).
    pub arrivals: Vec<ArrivalSpec>,
    /// Tenancy-plane configuration, when per-tenant virtual NICs are
    /// enabled (`None` on untenanted NICs; enables the PV6xx checks).
    pub tenancy: Option<tenancy::TenancyConfig>,
}

impl NicSpec {
    /// A spec over `topology` with the paper's reference parameters:
    /// 64-bit channels at 500 MHz, one 100 Gbps port, XY routing,
    /// default router buffers, standard 1518-byte frames, and no
    /// engines or program yet.
    #[must_use]
    pub fn new(topology: Topology) -> NicSpec {
        NicSpec {
            topology,
            width_bits: 64,
            freq: Freq::PANIC_DEFAULT,
            line_rate: Bandwidth::gbps(100),
            ports: 1,
            router: RouterConfig::default(),
            pipeline: PipelineConfig::panic_default(),
            routing: RoutingKind::XyDimensionOrdered,
            max_frame_bytes: 1518,
            table_entry_capacity: 1024,
            sched: SchedSpec::default(),
            engines: Vec::new(),
            program: None,
            watchdog: None,
            arrivals: Vec::new(),
            tenancy: None,
        }
    }

    /// Looks up an engine by id.
    #[must_use]
    pub fn engine(&self, id: EngineId) -> Option<&EngineSpec> {
        self.engines.iter().find(|e| e.id == id)
    }

    /// The mesh flit payload in bytes (channel width / 8, minimum 1).
    #[must_use]
    pub fn flit_bytes(&self) -> u64 {
        (self.width_bits / 8).max(1)
    }

    /// Flits needed to carry the largest frame.
    #[must_use]
    pub fn max_frame_flits(&self) -> u64 {
        self.max_frame_bytes.div_ceil(self.flit_bytes())
    }
}

/// One directed inter-NIC link through the simulated top-of-rack
/// switch: member `from`'s uplink to member `to`'s downlink.
///
/// Links are *directed*; a usable fabric declares both directions
/// (PV703 warns otherwise). The three parameters are the whole link
/// model the fabric simulates — propagation delay, serialization rate,
/// and the credit window that bounds in-flight messages:
///
/// ```
/// use panic_verify::LinkSpec;
///
/// let link = LinkSpec::new(0, 1);
/// assert_eq!(link.latency, sim_core::Cycles(16));
/// assert_eq!(link.bytes_per_cycle, 32);
/// assert_eq!(link.credits, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Sending member's index into [`FabricSpec::members`].
    pub from: usize,
    /// Receiving member's index into [`FabricSpec::members`].
    pub to: usize,
    /// Propagation delay through the ToR, in cycles. Also the lower
    /// bound on the fabric's synchronization epoch: NICs may only
    /// exchange at epoch boundaries, and an epoch no longer than the
    /// smallest link latency cannot reorder deliveries.
    pub latency: Cycles,
    /// Serialization rate: a `b`-byte message occupies the uplink for
    /// `ceil(b / bytes_per_cycle)` cycles (minimum 1).
    pub bytes_per_cycle: u64,
    /// In-flight message window. A full window backpressures the
    /// sender's egress queue (messages are never dropped on a link).
    pub credits: usize,
}

impl LinkSpec {
    /// A link `from → to` with the reference rack parameters:
    /// 16-cycle ToR latency, 32 bytes/cycle (~128 Gbps at 500 MHz),
    /// a 16-message credit window.
    #[must_use]
    pub fn new(from: usize, to: usize) -> LinkSpec {
        LinkSpec {
            from,
            to,
            latency: Cycles(16),
            bytes_per_cycle: 32,
            credits: 16,
        }
    }

    /// Sets the propagation latency.
    #[must_use]
    pub fn latency(mut self, cycles: u64) -> LinkSpec {
        self.latency = Cycles(cycles);
        self
    }

    /// Sets the serialization rate.
    #[must_use]
    pub fn bytes_per_cycle(mut self, bytes: u64) -> LinkSpec {
        self.bytes_per_cycle = bytes;
        self
    }

    /// Sets the credit window.
    #[must_use]
    pub fn credits(mut self, credits: usize) -> LinkSpec {
        self.credits = credits;
        self
    }
}

/// A rack-scale fabric, as data: N member NICs attached to one
/// simulated top-of-rack switch by explicit directed links.
///
/// This is the fabric analogue of [`NicSpec`]: `crates/fabric`'s
/// builder produces one via `to_spec()` and lints it by default, and
/// the `PV7xx` checks ([`crate::verify_fabric`]) run against it. Member
/// indices are the fabric-wide NIC addresses that remote-encoded
/// [`packet::EngineId`]s carry (at most 32 members, bits 14..10 of the
/// engine address).
///
/// ```
/// use noc::Topology;
/// use packet::{EngineClass, EngineId};
/// use panic_verify::{verify_fabric, EngineSpec, FabricSpec, LinkSpec, NicSpec};
///
/// // Two identical members, each with one portal tile.
/// let member = {
///     let mut spec = NicSpec::new(Topology::mesh(2, 2));
///     let mut portal = EngineSpec::new(EngineId(0), "portal", EngineClass::Rmt);
///     portal.is_portal = true;
///     spec.engines.push(portal);
///     spec
/// };
/// let fabric = FabricSpec::full_mesh(vec![member.clone(), member], LinkSpec::new(0, 0));
/// assert_eq!(fabric.links.len(), 2, "both directions declared");
/// assert!(fabric.link(0, 1).is_some());
/// let report = verify_fabric(&fabric);
/// assert!(report.is_clean(), "{}", report.render_human());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FabricSpec {
    /// The member NICs, indexed by fabric-wide NIC address.
    pub members: Vec<NicSpec>,
    /// Directed inter-NIC links through the ToR.
    pub links: Vec<LinkSpec>,
    /// Fabric fault plane, when armed: the fault schedule, the hop
    /// retry policy, and the failover pins. `None` = fault-free fabric
    /// (the PV8xx checks are skipped).
    pub faults: Option<faults::FabricFaultConfig>,
}

impl FabricSpec {
    /// A fabric over `members` with no links yet.
    #[must_use]
    pub fn new(members: Vec<NicSpec>) -> FabricSpec {
        FabricSpec {
            members,
            links: Vec::new(),
            faults: None,
        }
    }

    /// A fabric over `members` whose ToR connects every ordered pair of
    /// distinct members with a copy of `template` (its `from`/`to` are
    /// ignored; latency, rate, and credits are taken as-is).
    #[must_use]
    pub fn full_mesh(members: Vec<NicSpec>, template: LinkSpec) -> FabricSpec {
        let n = members.len();
        let mut links = Vec::new();
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    links.push(LinkSpec {
                        from,
                        to,
                        ..template
                    });
                }
            }
        }
        FabricSpec {
            members,
            links,
            faults: None,
        }
    }

    /// Looks up the directed link `from → to`, if declared.
    #[must_use]
    pub fn link(&self, from: usize, to: usize) -> Option<&LinkSpec> {
        self.links.iter().find(|l| l.from == from && l.to == to)
    }

    /// The smallest declared link latency — the upper bound on the
    /// fabric's synchronization epoch ([`LinkSpec::latency`]).
    #[must_use]
    pub fn min_link_latency(&self) -> Option<Cycles> {
        self.links.iter().map(|l| l.latency).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_paper_reference() {
        let s = NicSpec::new(Topology::mesh(4, 4));
        assert_eq!(s.width_bits, 64);
        assert_eq!(s.freq, Freq::PANIC_DEFAULT);
        assert_eq!(s.line_rate, Bandwidth::gbps(100));
        assert_eq!(s.sched.rank_width_bits, 48);
        assert_eq!(s.flit_bytes(), 8);
        // 1518-byte frame over 8-byte flits.
        assert_eq!(s.max_frame_flits(), 190);
        assert!(s.engines.is_empty());
    }

    #[test]
    fn arrival_spec_gap_arithmetic() {
        let a = ArrivalSpec::periodic("port0", 1000, 250_000);
        assert_eq!(a.min_gap_cycles, 250);
        // Zero-rate sources never fire.
        let z = ArrivalSpec::periodic("silent", 0, 100);
        assert_eq!(z.min_gap_cycles, u64::MAX);
        // Fresh specs carry no workload information.
        assert!(NicSpec::new(Topology::mesh(2, 2)).arrivals.is_empty());
    }

    #[test]
    fn engine_lookup_by_id() {
        let mut s = NicSpec::new(Topology::mesh(2, 2));
        s.engines
            .push(EngineSpec::new(EngineId(7), "crypto", EngineClass::Asic));
        assert_eq!(s.engine(EngineId(7)).unwrap().name, "crypto");
        assert!(s.engine(EngineId(8)).is_none());
    }

    #[test]
    fn full_mesh_declares_both_directions() {
        let members = vec![
            NicSpec::new(Topology::mesh(2, 2)),
            NicSpec::new(Topology::mesh(2, 2)),
            NicSpec::new(Topology::mesh(2, 2)),
        ];
        let f = FabricSpec::full_mesh(members, LinkSpec::new(0, 0).latency(4));
        // 3 members -> 6 directed links, no self-loops.
        assert_eq!(f.links.len(), 6);
        assert!(f.links.iter().all(|l| l.from != l.to));
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert!(f.link(a, b).is_some(), "missing {a}->{b}");
                }
            }
        }
        assert_eq!(f.min_link_latency(), Some(Cycles(4)));
        assert_eq!(FabricSpec::new(Vec::new()).min_link_latency(), None);
    }

    #[test]
    fn link_builder_round_trips() {
        let l = LinkSpec::new(1, 2).latency(9).bytes_per_cycle(8).credits(4);
        assert_eq!((l.from, l.to), (1, 2));
        assert_eq!(l.latency, Cycles(9));
        assert_eq!(l.bytes_per_cycle, 8);
        assert_eq!(l.credits, 4);
    }
}
