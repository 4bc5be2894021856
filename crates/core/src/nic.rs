//! The assembled PANIC NIC.
//!
//! [`PanicNic`] owns the mesh network, the engine tiles, and the
//! heavyweight RMT pipeline, and advances them all in lock-step. The
//! pipeline is physically present on the mesh as *portal tiles*
//! (Figure 3c's column of RMT engines): a message addressed to a
//! portal crosses the mesh like any other message, is consumed into
//! the shared pipeline, and re-enters the mesh from a portal when its
//! pipeline latency elapses. This keeps both halves of §4.2's
//! throughput story observable: pipeline slots (`F × P`) and mesh
//! bandwidth are separate, measurable resources.
//!
//! Per-cycle order (one `tick`):
//!
//! 1. drain NoC ejections into tiles (respecting tile backpressure)
//!    and portals into the pipeline;
//! 2. advance the pipeline; route its outputs onto the mesh along the
//!    chains it computed;
//! 3. advance every tile; route its emissions (next hop, pipeline
//!    fallback, or NIC egress);
//! 4. advance the mesh one cycle.

use std::fmt;

use bytes::Bytes;
use engines::engine::Offload;
use engines::pcie::PcieEngine;
use engines::tile::{Emit, EngineTile, TileConfig};
use faults::{CompleteOutcome, ExpiryAction, FaultKind, FaultPlan, Watchdog, WatchdogConfig};
use noc::network::{MeshNetwork, NetworkConfig};
use noc::router::RouterConfig;
use noc::topology::{Coord, Placement, Topology};
use packet::chain::{EngineId, Hop, Slack};
use packet::message::{Message, MessageId, MessageKind, Priority, TenantId};
use rmt::action::Verdict;
use rmt::pipeline::{PipelineConfig, RmtPipeline};
use rmt::program::RmtProgram;
use sim_core::clock::{drive, Advance, Driven};
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use tenancy::{ExitKind, SubmitSource, TenancyConfig, TenancyRuntime, TenantConservation};
use trace::{MetricSink, Tracer, TrackId};

use crate::faultplane::{Conservation, FaultRuntime};

/// NIC-level configuration (topology and clocks; engines and programs
/// are added through the builder).
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Mesh shape.
    pub topology: Topology,
    /// Channel width in bits.
    pub width_bits: u64,
    /// Router buffering.
    pub router: RouterConfig,
    /// Pipeline timing (parallelism, depth).
    pub pipeline: PipelineConfig,
    /// PCIe interrupt-coalescing flush period in cycles (0 = never).
    pub pcie_flush_interval: u64,
}

impl NicConfig {
    /// The paper's small reference NIC: 6×6 mesh, 64-bit channels, two
    /// 500 MHz pipelines.
    #[must_use]
    pub fn small() -> NicConfig {
        NicConfig {
            topology: Topology::mesh6x6(),
            width_bits: 64,
            router: RouterConfig::default(),
            pipeline: PipelineConfig::panic_default(),
            pcie_flush_interval: 5000, // 10 us at 500 MHz
        }
    }
}

/// What occupies a tile. The engine wrapper is boxed: an [`EngineTile`]
/// is ~1.2 kB of queues and histograms, and portals carry nothing.
enum TileSlot {
    /// A wrapped offload engine.
    Engine(Box<EngineTile>),
    /// A portal into the shared heavyweight pipeline.
    RmtPortal,
}

/// Per-layer cycle attribution (`perf.layer.*` metrics): for each
/// simulation layer, the number of cycles in which it *held work*.
/// The NoC's share lives in [`noc::MeshNetwork::active_cycles`]; these
/// cover the layers the NIC drives directly.
///
/// A layer is charged whether or not it makes progress in a given
/// cycle, so the charge for a quiescent-window cycle is always zero —
/// which is what keeps the counters byte-identical across stepped,
/// fast-forwarded, and event-driven runs: ticked idle cycles charge
/// nothing, and skipped spans are replayed by [`PanicNic::skip_idle`]
/// against the same (window-constant) held-work conditions.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCycles {
    /// Cycles with pipeline backlog or messages in flight in a stage.
    pub rmt: u64,
    /// Cycles where at least one engine tile held work.
    pub engines: u64,
    /// Cycles where at least one tile's scheduler queue was non-empty.
    pub sched: u64,
    /// Cycles where the tenancy plane held pending messages.
    pub tenancy: u64,
}

/// NIC-level counters.
#[derive(Debug)]
pub struct NicStats {
    /// Frames handed to `rx_frame`.
    pub rx_frames: u64,
    /// Frames transmitted on the wire.
    pub tx_wire: u64,
    /// Frames/messages delivered to the host.
    pub host_deliveries: u64,
    /// Messages absorbed by engines (verification failures, policing).
    pub consumed: u64,
    /// Control messages (completions, events) that finished their
    /// chains — normal end of life, counted for conservation checks.
    pub control_completed: u64,
    /// Pipeline outputs with an empty chain (program bug or policy
    /// gap; these messages are dropped).
    pub unrouted: u64,
    /// Messages injected from inside the NIC boundary
    /// ([`PanicNic::inject_from`]) — a conservation source alongside
    /// `rx_frames`.
    pub injected_internal: u64,
    /// Watchdog re-issues: fresh copies of timed-out descriptors
    /// (fault plane only; always 0 without a watchdog).
    pub reissued: u64,
    /// Descriptors that exhausted their retry budget (fault plane
    /// only). Descriptor-level — the copies themselves are in the
    /// loss buckets.
    pub failed: u64,
    /// Late copies of already-completed descriptors suppressed at
    /// egress (fault plane only).
    pub duplicates: u64,
    /// Messages steered to the host because their next engine was
    /// DOWN with no replica available (fault plane only).
    pub host_fallback: u64,
    /// Messages handed to the rack fabric because their current chain
    /// hop addresses another NIC (fabric only; always 0 standalone).
    pub remote_tx: u64,
    /// Messages accepted from the rack fabric via
    /// [`PanicNic::rx_remote`] (fabric only; always 0 standalone).
    pub remote_rx: u64,
    /// Recovery latency: first descriptor timeout → eventual
    /// completion (fault plane only).
    pub recovery: Histogram,
    /// Detection-to-isolation latency: first wedged observation of an
    /// engine → the watchdog marking it DOWN (fault plane only).
    pub time_to_failover: Histogram,
    /// End-to-end latency (injection → wire/host egress), by priority.
    pub latency: [Histogram; 3],
    /// Per-layer cycle attribution (see [`LayerCycles`]).
    pub layer: LayerCycles,
}

impl NicStats {
    fn new() -> NicStats {
        NicStats {
            rx_frames: 0,
            tx_wire: 0,
            host_deliveries: 0,
            consumed: 0,
            control_completed: 0,
            unrouted: 0,
            injected_internal: 0,
            reissued: 0,
            failed: 0,
            duplicates: 0,
            host_fallback: 0,
            remote_tx: 0,
            remote_rx: 0,
            recovery: Histogram::new(),
            time_to_failover: Histogram::new(),
            latency: [Histogram::new(), Histogram::new(), Histogram::new()],
            layer: LayerCycles::default(),
        }
    }

    /// Latency histogram for a priority class.
    #[must_use]
    pub fn latency_of(&self, p: Priority) -> &Histogram {
        match p {
            Priority::Latency => &self.latency[0],
            Priority::Normal => &self.latency[1],
            Priority::Bulk => &self.latency[2],
        }
    }

    fn record_latency(&mut self, msg: &Message, now: Cycle) {
        let idx = match msg.priority {
            Priority::Latency => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        };
        self.latency[idx].record(now.saturating_since(msg.injected_at).count());
    }
}

/// Builds a [`PanicNic`]: place engines and portals, load the program.
pub struct NicBuilder {
    config: NicConfig,
    slots: Vec<(EngineId, Option<Coord>, SlotSpec)>,
    next_id: u16,
    program: Option<RmtProgram>,
    watchdog: Option<WatchdogConfig>,
    tenancy: Option<TenancyConfig>,
}

enum SlotSpec {
    Engine(Box<dyn Offload>, TileConfig),
    Portal,
}

impl fmt::Debug for NicBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NicBuilder")
            .field("topology", &self.config.topology)
            .field("slots", &self.slots.len())
            .field("has_program", &self.program.is_some())
            .finish_non_exhaustive()
    }
}

impl NicBuilder {
    /// Starts a builder.
    #[must_use]
    pub fn new(config: NicConfig) -> NicBuilder {
        NicBuilder {
            config,
            slots: Vec::new(),
            next_id: 0,
            program: None,
            watchdog: None,
            tenancy: None,
        }
    }

    fn alloc_id(&mut self) -> EngineId {
        let id = EngineId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Adds an engine at the next free tile.
    pub fn engine(&mut self, offload: Box<dyn Offload>, tile: TileConfig) -> EngineId {
        let id = self.alloc_id();
        self.slots.push((id, None, SlotSpec::Engine(offload, tile)));
        id
    }

    /// Adds an engine at a specific tile.
    pub fn engine_at(
        &mut self,
        coord: Coord,
        offload: Box<dyn Offload>,
        tile: TileConfig,
    ) -> EngineId {
        let id = self.alloc_id();
        self.slots
            .push((id, Some(coord), SlotSpec::Engine(offload, tile)));
        id
    }

    /// Adds an RMT portal tile (an entrance/exit of the heavyweight
    /// pipeline). Add one per parallel pipeline for a faithful layout.
    pub fn rmt_portal(&mut self) -> EngineId {
        let id = self.alloc_id();
        self.slots.push((id, None, SlotSpec::Portal));
        id
    }

    /// Adds an RMT portal at a specific tile.
    pub fn rmt_portal_at(&mut self, coord: Coord) -> EngineId {
        let id = self.alloc_id();
        self.slots.push((id, Some(coord), SlotSpec::Portal));
        id
    }

    /// Loads the pipeline program.
    pub fn program(&mut self, program: RmtProgram) {
        self.program = Some(program);
    }

    /// Arms the watchdog: every frame entering the NIC gets an
    /// in-flight deadline, engines are health-checked, and timed-out
    /// descriptors are re-issued per `config`. The configuration is
    /// linted by the PV4xx checks at [`NicBuilder::build`] time.
    pub fn watchdog(&mut self, config: WatchdogConfig) {
        self.watchdog = Some(config);
    }

    /// Enables the tenancy plane: per-tenant virtual NICs with
    /// weighted-fair scheduling, credit-based admission, and rate
    /// limiting ahead of the shared datapath. Frames whose
    /// [`TenantId`] matches a configured vNIC are parked in a
    /// per-tenant pending queue at the NIC boundary and released by
    /// the tenancy scheduler; unknown tenants bypass it entirely. The
    /// configuration is linted by the PV6xx checks at
    /// [`NicBuilder::build`] time.
    pub fn tenancy(&mut self, config: TenancyConfig) {
        self.tenancy = Some(config);
    }

    /// Extracts the plain-data description of everything configured so
    /// far, for the static verifier (`panic-verify`) or external tools.
    ///
    /// Runtime knobs map onto spec fields directly: each slot becomes
    /// an [`panic_verify::EngineSpec`] carrying the offload's name,
    /// class, and nominal service time plus the tile's queue sizing;
    /// the port count and line rate come from the [`engines::mac::MacEngine`]s
    /// present (defaulting to one 100 Gbps port when the configuration
    /// has no MAC, so the PV002 chain-length model stays meaningful).
    #[must_use]
    pub fn to_spec(&self) -> panic_verify::NicSpec {
        use engines::mac::MacEngine;
        use packet::chain::EngineClass;

        let mut spec = panic_verify::NicSpec::new(self.config.topology);
        spec.width_bits = self.config.width_bits;
        spec.freq = self.config.pipeline.freq;
        spec.router = self.config.router;
        spec.pipeline = self.config.pipeline;
        spec.program = self.program.clone();
        spec.watchdog = self.watchdog;
        spec.tenancy = self.tenancy.clone();

        let mut ports = 0u32;
        let mut line_rate = None;
        for (id, coord, slot) in &self.slots {
            let mut e = match slot {
                SlotSpec::Engine(offload, cfg) => {
                    if let Some(mac) = offload.as_any().downcast_ref::<MacEngine>() {
                        ports += 1;
                        let rate = mac.line_rate();
                        line_rate =
                            Some(line_rate.map_or(rate, |prev: sim_core::time::Bandwidth| {
                                if rate.as_bps() > prev.as_bps() {
                                    rate
                                } else {
                                    prev
                                }
                            }));
                    }
                    let mut e = panic_verify::EngineSpec::new(*id, offload.name(), offload.class());
                    e.service_cycles = offload.nominal_service_cycles();
                    e.queue_capacity = cfg.queue_capacity;
                    e.admission = cfg.admission;
                    e.lossless = cfg.lossless;
                    e
                }
                SlotSpec::Portal => {
                    let mut e = panic_verify::EngineSpec::new(*id, "rmt-portal", EngineClass::Rmt);
                    e.is_portal = true;
                    e
                }
            };
            e.coord = *coord;
            spec.engines.push(e);
        }
        if ports > 0 {
            spec.ports = ports;
        }
        if let Some(rate) = line_rate {
            spec.line_rate = rate;
        }
        spec
    }

    /// Lints the configuration accumulated so far and returns the full
    /// diagnostic report (including warnings and notes). [`build`]
    /// calls this and refuses configurations with errors;
    /// use this directly for a non-fatal report.
    ///
    /// [`build`]: NicBuilder::build
    #[must_use]
    pub fn validate(&self) -> panic_verify::Report {
        panic_verify::verify(&self.to_spec())
    }

    /// Builds the NIC, statically verifying the configuration first.
    ///
    /// # Panics
    /// Panics if no program was loaded, or if the verifier finds an
    /// error-severity diagnostic: a missing portal (PV204), a chain hop
    /// to a nonexistent engine (PV001), an over-long worst-case chain
    /// (PV002), a placement conflict or overflow (PV004), unbufferable
    /// routers (PV102), an over-capacity program (PV203), or a lossless
    /// engine without backpressure admission (PV303), among others. The
    /// panic message carries the rendered diagnostics.
    #[must_use]
    pub fn build(self) -> PanicNic {
        assert!(self.program.is_some(), "NIC built without a program");
        let report = self.validate();
        assert!(
            report.error_count() == 0,
            "NIC configuration failed verification:\n{}",
            report.render_human()
        );
        self.build_unvalidated()
    }

    /// Builds the NIC without running the static verifier — the escape
    /// hatch for experiments that deliberately construct pathological
    /// configurations (e.g. HOL-blocking demonstrations that overdrive
    /// a chain the linter would flag).
    ///
    /// # Panics
    /// Panics if no program was loaded, no portal was added, explicit
    /// coordinates collide, or more tiles are requested than the mesh
    /// has.
    #[must_use]
    pub fn build_unvalidated(self) -> PanicNic {
        let program = self.program.expect("NIC built without a program");
        let topology = self.config.topology;
        assert!(
            self.slots.len() <= topology.nodes(),
            "more engines ({}) than tiles ({})",
            self.slots.len(),
            topology.nodes()
        );

        // Explicit placements first, then fill row-major.
        let mut placement = Placement::new();
        let mut taken: Vec<Coord> = Vec::new();
        for (id, coord, _) in &self.slots {
            if let Some(c) = coord {
                placement.place(*id, *c);
                taken.push(*c);
            }
        }
        let mut free = topology.coords().filter(|c| !taken.contains(c));
        for (id, coord, _) in &self.slots {
            if coord.is_none() {
                let c = free.next().expect("checked tile count");
                placement.place(*id, c);
            }
        }

        let network = MeshNetwork::new(
            NetworkConfig {
                topology,
                width_bits: self.config.width_bits,
                router: self.config.router,
            },
            placement,
        );

        let mut slots: Vec<(EngineId, TileSlot)> = Vec::new();
        let mut portals = Vec::new();
        for (id, _, spec) in self.slots {
            match spec {
                SlotSpec::Engine(offload, cfg) => {
                    slots.push((
                        id,
                        TileSlot::Engine(Box::new(EngineTile::new(id, offload, cfg))),
                    ));
                }
                SlotSpec::Portal => {
                    portals.push(id);
                    slots.push((id, TileSlot::RmtPortal));
                }
            }
        }
        assert!(!portals.is_empty(), "NIC needs at least one RMT portal");

        // Dense id-sorted storage: the tick loop indexes straight into
        // the `Vec` (no tree walk per tile per cycle), and by-id access
        // binary-searches `tile_ids` — the per-message slow path.
        slots.sort_by_key(|(id, _)| *id);
        let tile_ids: Vec<EngineId> = slots.iter().map(|(id, _)| *id).collect();
        let tiles: Vec<TileSlot> = slots.into_iter().map(|(_, slot)| slot).collect();
        let slot_noc_tile: Vec<u32> = tile_ids
            .iter()
            .map(|id| topology.index(network.coord_of(*id)) as u32)
            .collect();
        let tile_idle = vec![false; tiles.len()];
        PanicNic {
            pipeline: RmtPipeline::new(self.config.pipeline, program),
            config: self.config,
            network,
            tiles,
            slot_noc_tile,
            tile_idle,
            tile_ids,
            pipeline_scratch: Vec::new(),
            emit_scratch: Vec::new(),
            portals,
            pipeline_gated: false,
            rr_portal: 0,
            next_msg_id: 0,
            wire_tx: Vec::new(),
            host_rx: Vec::new(),
            remote_egress: Vec::new(),
            fabric_index: None,
            stats: NicStats::new(),
            tracer: Tracer::disabled(),
            track: TrackId(0),
            faults: self.watchdog.map(|cfg| {
                Box::new(FaultRuntime::new(
                    FaultPlan::default(),
                    Some(Watchdog::new(cfg)),
                ))
            }),
            tenancy: self.tenancy.map(|c| Box::new(TenancyRuntime::new(c))),
        }
    }
}

/// The PANIC NIC.
pub struct PanicNic {
    config: NicConfig,
    network: MeshNetwork,
    /// Tile slots, parallel to `tile_ids` (id-sorted, fixed at build).
    tiles: Vec<TileSlot>,
    /// Slot index -> NoC tile index, parallel to `tile_ids`, so the
    /// ejection pass tests the network's ejection-pending bitmask
    /// per slot without any per-id lookup.
    slot_noc_tile: Vec<u32>,
    /// Per-slot flag: the tile was skipped as workless and owes a
    /// [`EngineTile::catch_up_idle`] replay before its next tick.
    tile_idle: Vec<bool>,
    portals: Vec<EngineId>,
    pipeline: RmtPipeline,
    /// True while the management plane holds the pipeline gate shut
    /// (a program hot-swap is draining): portals stop submitting, and
    /// arriving flits backpressure losslessly in the NoC ejection
    /// buffers until the gate reopens. Always false outside a swap.
    pipeline_gated: bool,
    rr_portal: usize,
    next_msg_id: u64,
    wire_tx: Vec<Message>,
    host_rx: Vec<Message>,
    /// Messages whose current chain hop addresses another NIC
    /// ([`EngineId::is_remote`]), parked here for the fabric to drain
    /// onto an inter-NIC link. Always empty on a standalone NIC, so
    /// the rack machinery costs non-fabric runs nothing.
    remote_egress: Vec<Message>,
    /// This NIC's index in a rack fabric, `None` standalone. A chain
    /// hop remote-addressed to this index (the tail of a chain some
    /// *other* NIC's pipeline encoded) resolves locally instead of
    /// re-crossing the ToR.
    fabric_index: Option<usize>,
    stats: NicStats,
    tracer: Tracer,
    track: TrackId,
    /// Fault-plane runtime. `None` (the default) keeps the NIC on the
    /// fault-free fast path: one `is_some` check per tick, no extra
    /// metrics or trace tracks, byte-identical output.
    faults: Option<Box<FaultRuntime>>,
    /// Tenancy runtime. Same contract as `faults`: `None` (the
    /// default) costs one `is_some` check per tick and keeps every
    /// trace, metric, and report byte-identical to an untenanted NIC.
    tenancy: Option<Box<TenancyRuntime>>,
    /// Tile ids in iteration order, cached at build time (the tile set
    /// is fixed after construction) so the tick loop doesn't rebuild a
    /// `Vec` every cycle.
    tile_ids: Vec<EngineId>,
    /// Reusable buffer for pipeline outputs (zero-alloc steady state;
    /// see `docs/PERF.md`).
    pipeline_scratch: Vec<rmt::pipeline::PipelineOutput>,
    /// Reusable buffer for tile emissions.
    emit_scratch: Vec<Emit>,
}

impl fmt::Debug for PanicNic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PanicNic")
            .field("topology", &self.config.topology)
            .field("tiles", &self.tiles.len())
            .field("portals", &self.portals.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl PanicNic {
    /// Starts building a NIC.
    #[must_use]
    pub fn builder(config: NicConfig) -> NicBuilder {
        NicBuilder::new(config)
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// NIC-level counters.
    #[must_use]
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// The underlying mesh network (for traffic statistics).
    #[must_use]
    pub fn network(&self) -> &MeshNetwork {
        &self.network
    }

    /// The heavyweight pipeline (for throughput statistics).
    #[must_use]
    pub fn pipeline(&self) -> &RmtPipeline {
        &self.pipeline
    }

    /// Arms the fault plane with an injection `plan`. Events fire at
    /// the top of the [`PanicNic::tick`] whose cycle they name, in
    /// plan order — same plan, same seed, same trace, every run.
    /// Merges with any previously enabled plan/watchdog.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        match &mut self.faults {
            Some(fr) => {
                // Keep only the unfired tail of the old plan; events
                // whose cycle already passed fire on the next tick.
                let merged: Vec<faults::FaultEvent> = fr.plan.events()[fr.cursor..]
                    .iter()
                    .chain(plan.events())
                    .copied()
                    .collect();
                fr.plan = FaultPlan::new(merged);
                fr.cursor = 0;
            }
            None => self.faults = Some(Box::new(FaultRuntime::new(plan, None))),
        }
    }

    /// Arms (or replaces) the watchdog at runtime. Prefer
    /// [`NicBuilder::watchdog`], which also runs the PV4xx lints.
    pub fn set_watchdog(&mut self, config: WatchdogConfig) {
        let wd = Some(Watchdog::new(config));
        match &mut self.faults {
            Some(fr) => fr.watchdog = wd,
            None => {
                self.faults = Some(Box::new(FaultRuntime::new(FaultPlan::default(), wd)));
            }
        }
    }

    /// The watchdog's descriptor ledger, when one is armed.
    #[must_use]
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.faults.as_ref().and_then(|fr| fr.watchdog.as_ref())
    }

    /// Engines the watchdog has marked DOWN, in marking order.
    #[must_use]
    pub fn downed_engines(&self) -> &[EngineId] {
        self.faults.as_ref().map_or(&[], |fr| &fr.downed)
    }

    /// True when the fault plane has nothing left to do: every planned
    /// event fired and no tracked descriptor is still awaiting a
    /// deadline. Combined with [`PanicNic::is_quiescent`] this is the
    /// drain condition under faults. Trivially true on a fault-free
    /// NIC.
    #[must_use]
    pub fn faults_settled(&self) -> bool {
        match &self.faults {
            None => true,
            Some(fr) => {
                fr.plan_exhausted() && fr.watchdog.as_ref().is_none_or(|w| w.pending() == 0)
            }
        }
    }

    /// Snapshot of the copy-level conservation identity (see
    /// [`Conservation`]). Meaningful once
    /// `is_quiescent() && faults_settled()`; mid-run the in-flight
    /// copies sit in neither column.
    #[must_use]
    pub fn conservation(&self) -> Conservation {
        let mut sched_drops = 0;
        let mut flushed = 0;
        for slot in self.tiles.iter() {
            if let TileSlot::Engine(t) = slot {
                sched_drops += t.drops();
                flushed += t.stats().flushed;
            }
        }
        Conservation {
            rx_frames: self.stats.rx_frames,
            injected_internal: self.stats.injected_internal,
            reissued: self.stats.reissued,
            tx_wire: self.stats.tx_wire,
            host_deliveries: self.stats.host_deliveries,
            host_fallback: self.stats.host_fallback,
            consumed: self.stats.consumed,
            control_completed: self.stats.control_completed,
            unrouted: self.stats.unrouted,
            sched_drops,
            lost_noc: self.network.lost_messages(),
            flushed,
            duplicates: self.stats.duplicates,
            remote_rx: self.stats.remote_rx,
            remote_tx: self.stats.remote_tx,
        }
    }

    /// Attaches `tracer` to every instrumented component at once: the
    /// mesh (per-router tracks), each engine tile (service spans and
    /// `sched.*` events), the heavyweight pipeline (per-stage
    /// match/miss), and the NIC boundary itself (a `nic` track with
    /// `nic.rx_frame` / `nic.tx_wire` / `nic.host_delivery` instants).
    /// See `docs/TRACING.md` for the full taxonomy.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.track = tracer.track("nic");
        self.network.attach_tracer(tracer);
        self.pipeline.attach_tracer(tracer);
        for slot in self.tiles.iter_mut() {
            if let TileSlot::Engine(tile) = slot {
                tile.attach_tracer(tracer);
            }
        }
        if let Some(tn) = self.tenancy.as_mut() {
            tn.attach_tracer(tracer);
        }
    }

    /// Exports every component's statistics into `m` under the uniform
    /// schema: NIC counters and per-priority latency histograms under
    /// `nic.*`, mesh traffic under `noc.*`, pipeline counters under
    /// `rmt.*`, and per-tile counters under `engine.<id>.<offload>.*`.
    ///
    /// `m` is any [`MetricSink`] — a `trace::MetricsRegistry` at the
    /// end of a run, the control endpoint's telemetry cursor every
    /// cycle. Each subtree (`nic.`, `tenancy.`, `perf.layer.`, `noc.`,
    /// `rmt.`, `engine.`) is visited only if the sink
    /// [wants](MetricSink::wants) it, so a sink reading one subtree
    /// pays for one.
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S) {
        if m.wants("nic.") {
            self.export_nic_metrics(m);
        }
        // Tenancy counters exist only when the tenancy plane is
        // engaged.
        if let Some(tn) = &self.tenancy {
            tn.export_metrics(m);
        }
        // Per-layer cycle attribution: where simulated time goes when
        // the NIC is busy. The tenancy share appears only when the
        // tenancy plane is engaged, like the rest of its counters.
        if m.wants("perf.layer.") {
            let layer = &self.stats.layer;
            m.counter(format_args!("perf.layer.noc"), self.network.active_cycles());
            m.counter(format_args!("perf.layer.rmt"), layer.rmt);
            m.counter(format_args!("perf.layer.engines"), layer.engines);
            m.counter(format_args!("perf.layer.sched"), layer.sched);
            if self.tenancy.is_some() {
                m.counter(format_args!("perf.layer.tenancy"), layer.tenancy);
            }
        }
        if m.wants("noc.") {
            self.network.export_metrics(m, "noc");
        }
        if m.wants("rmt.") {
            self.pipeline.export_metrics(m, "rmt");
        }
        if m.wants("engine.") {
            for (id, slot) in self.tile_ids.iter().zip(&self.tiles) {
                if let TileSlot::Engine(tile) = slot {
                    tile.export_metrics(m, format_args!("engine.{}.{}", id.0, tile.offload_name()));
                }
            }
        }
    }

    /// The `nic.*` subtree of [`PanicNic::export_metrics`].
    fn export_nic_metrics<S: MetricSink + ?Sized>(&self, m: &mut S) {
        let s = &self.stats;
        m.counter(format_args!("nic.rx_frames"), s.rx_frames);
        m.counter(format_args!("nic.tx_wire"), s.tx_wire);
        m.counter(format_args!("nic.host_deliveries"), s.host_deliveries);
        m.counter(format_args!("nic.consumed"), s.consumed);
        m.counter(format_args!("nic.control_completed"), s.control_completed);
        m.counter(format_args!("nic.unrouted"), s.unrouted);
        // Fault-plane counters exist only when the fault plane is
        // engaged, keeping fault-free metrics output byte-identical.
        if self.faults.is_some() {
            m.counter(format_args!("nic.injected_internal"), s.injected_internal);
            m.counter(format_args!("nic.reissued"), s.reissued);
            m.counter(format_args!("nic.failed"), s.failed);
            m.counter(format_args!("nic.duplicates"), s.duplicates);
            m.counter(format_args!("nic.host_fallback"), s.host_fallback);
            m.counter(
                format_args!("nic.downed_engines"),
                self.downed_engines().len() as u64,
            );
            if s.recovery.count() > 0 {
                m.histogram(format_args!("nic.recovery"), &s.recovery);
            }
            if s.time_to_failover.count() > 0 {
                m.histogram(format_args!("nic.time_to_failover"), &s.time_to_failover);
            }
        }
        // Fabric counters exist only once fabric traffic flowed, so a
        // 1-NIC fabric run exports byte-identically to a bare NIC.
        if s.remote_tx > 0 || s.remote_rx > 0 {
            m.counter(format_args!("nic.remote_tx"), s.remote_tx);
            m.counter(format_args!("nic.remote_rx"), s.remote_rx);
        }
        for (name, p) in [
            ("latency", Priority::Latency),
            ("normal", Priority::Normal),
            ("bulk", Priority::Bulk),
        ] {
            let h = s.latency_of(p);
            if h.count() > 0 {
                m.histogram(format_args!("nic.latency.{name}"), h);
            }
        }
    }

    /// Index of `id` in the id-sorted tile arrays, if placed.
    #[inline]
    fn tile_index(&self, id: EngineId) -> Option<usize> {
        self.tile_ids.binary_search(&id).ok()
    }

    /// True when `id` occupies a tile (engine or portal).
    #[inline]
    fn has_tile(&self, id: EngineId) -> bool {
        self.tile_index(id).is_some()
    }

    /// A tile's engine wrapper, if `id` is an engine tile.
    #[must_use]
    pub fn tile(&self, id: EngineId) -> Option<&EngineTile> {
        match self.tile_index(id).map(|i| &self.tiles[i]) {
            Some(TileSlot::Engine(t)) => Some(t),
            _ => None,
        }
    }

    /// Mutable tile access (for scenario setup).
    pub fn tile_mut(&mut self, id: EngineId) -> Option<&mut EngineTile> {
        match self.tile_index(id).map(|i| &mut self.tiles[i]) {
            Some(TileSlot::Engine(t)) => Some(t),
            _ => None,
        }
    }

    fn next_portal(&mut self) -> EngineId {
        let p = self.portals[self.rr_portal % self.portals.len()];
        self.rr_portal += 1;
        p
    }

    fn alloc_msg_id(&mut self) -> MessageId {
        let id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        id
    }

    /// Receives a frame from the wire at `port` (an Ethernet tile).
    /// The frame heads to the heavyweight pipeline for classification,
    /// as every fresh message must (§3.1.2).
    pub fn rx_frame(
        &mut self,
        port: EngineId,
        frame: Bytes,
        tenant: TenantId,
        priority: Priority,
        now: Cycle,
    ) -> MessageId {
        let id = self.alloc_msg_id();
        let msg = Message::builder(id, MessageKind::EthernetFrame)
            .payload(frame)
            .tenant(tenant)
            .priority(priority)
            .source(port)
            .injected_at(now)
            .build();
        self.stats.rx_frames += 1;
        self.tracer
            .instant_arg(self.track, "nic.rx_frame", now, "msg", id.0);
        // Tenancy interception: frames belonging to a configured vNIC
        // park in its pending queue and enter the datapath when the
        // tenancy scheduler releases them (admission + rate + DRR).
        // Unknown tenants — and every frame on an untenanted NIC —
        // take the direct path below.
        if let Some(tn) = self.tenancy.as_mut() {
            // `admits`, not `knows`: a vNIC draining toward live
            // removal stops admitting while its in-flight copies keep
            // settling through the accounting paths.
            if tn.admits(tenant) {
                tn.submit(SubmitSource::Rx, msg, now);
                return id;
            }
        }
        self.watchdog_track(&msg, port, now);
        let portal = self.next_portal();
        self.network.send(port, portal, msg, now);
        id
    }

    /// Injects a frame that originates *inside* the NIC boundary at
    /// `source` (e.g. a host TX path handing a frame to the DMA tile).
    pub fn inject_from(
        &mut self,
        source: EngineId,
        frame: Bytes,
        tenant: TenantId,
        priority: Priority,
        now: Cycle,
    ) -> MessageId {
        let id = self.alloc_msg_id();
        let msg = Message::builder(id, MessageKind::EthernetFrame)
            .payload(frame)
            .tenant(tenant)
            .priority(priority)
            .source(source)
            .injected_at(now)
            .build();
        self.stats.injected_internal += 1;
        if let Some(tn) = self.tenancy.as_mut() {
            if tn.admits(tenant) {
                tn.submit(SubmitSource::Injected, msg, now);
                return id;
            }
        }
        self.watchdog_track(&msg, source, now);
        let portal = self.next_portal();
        self.network.send(source, portal, msg, now);
        id
    }

    /// Registers a freshly injected message with the watchdog ledger,
    /// when one is armed.
    fn watchdog_track(&mut self, msg: &Message, source: EngineId, now: Cycle) {
        if let Some(fr) = &mut self.faults {
            if let Some(wd) = &mut fr.watchdog {
                wd.track(msg, source, now);
            }
        }
    }

    /// Drains frames transmitted on the wire since the last call.
    pub fn take_wire_tx(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.wire_tx)
    }

    /// Drains host deliveries since the last call.
    pub fn take_host_rx(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.host_rx)
    }

    // ---- rack-fabric boundary --------------------------------------
    //
    // A standalone NIC never calls any of these; `crates/fabric` uses
    // them to carry chain hops across NICs (docs/FABRIC.md).

    /// Messages parked for the fabric (oldest first). Non-empty only
    /// mid-run on a fabric member.
    #[must_use]
    pub fn remote_egress(&self) -> &[Message] {
        &self.remote_egress
    }

    /// Pops the oldest fabric-bound message, if its link has capacity
    /// (the fabric checks credits before popping; messages left here
    /// are backpressured, not dropped).
    pub fn pop_remote_egress(&mut self) -> Option<Message> {
        if self.remote_egress.is_empty() {
            None
        } else {
            Some(self.remote_egress.remove(0))
        }
    }

    /// Accepts a message arriving over an inter-NIC link. The current
    /// chain hop must be remote-encoded; it is localized
    /// ([`packet::ChainHeader::localize_current`]) and the message injected
    /// into this NIC's mesh at `uplink` (the member's fabric
    /// attachment tile), heading straight for the target engine — the
    /// chain was computed by the *source* NIC's pipeline, and §3.1.2's
    /// one-heavyweight-pass discipline holds fleet-wide.
    ///
    /// Counts a `remote_rx` source; tracks the copy with this NIC's
    /// watchdog when one is armed; notes a tenancy `remote_rx` source
    /// when the tenant has a vNIC here (no credit is charged — the
    /// copy was admitted at its home NIC).
    ///
    /// Returns `false` (counting the copy as `unrouted`) when the
    /// current hop is missing, not remote, or targets an engine this
    /// NIC doesn't have — the dynamic counterpart of the PV701 lint.
    pub fn rx_remote(&mut self, mut msg: Message, uplink: EngineId, now: Cycle) -> bool {
        let target = msg.chain.current().map(|h| h.engine);
        let local = match target {
            Some(t) if t.is_remote() => t.local_part(),
            _ => {
                self.stats.remote_rx += 1;
                self.stats.unrouted += 1;
                self.tenancy_remote_rx(msg.tenant);
                self.tenancy_exit(msg.tenant, ExitKind::Unrouted, None, now);
                return false;
            }
        };
        if !self.has_tile(local) {
            self.stats.remote_rx += 1;
            self.stats.unrouted += 1;
            self.tenancy_remote_rx(msg.tenant);
            self.tenancy_exit(msg.tenant, ExitKind::Unrouted, None, now);
            return false;
        }
        msg.chain.localize_current(local);
        self.stats.remote_rx += 1;
        self.tenancy_remote_rx(msg.tenant);
        if self.tracer.enabled() {
            self.tracer
                .instant_arg(self.track, "nic.remote_rx", now, "msg", msg.id.0);
        }
        self.watchdog_track(&msg, uplink, now);
        self.network.send(uplink, local, msg, now);
        true
    }

    /// Notes a fabric-ingress copy with the tenancy plane, when the
    /// tenant has a vNIC on *this* NIC (cross-NIC chains of striped
    /// tenants bypass the plane on non-home members).
    fn tenancy_remote_rx(&mut self, tenant: TenantId) {
        if let Some(tn) = self.tenancy.as_mut() {
            if tn.knows(tenant) {
                tn.note_remote_rx(tenant);
            }
        }
    }

    /// Offsets this NIC's message-id allocator so ids are unique
    /// fleet-wide (the fabric gives member *i* base `i << 48`; the
    /// watchdog's completion ledger and trace `msg` args stay
    /// unambiguous when copies cross NICs). Call before any traffic.
    pub fn set_msg_id_base(&mut self, base: u64) {
        debug_assert_eq!(self.next_msg_id, 0, "id base set after traffic started");
        self.next_msg_id = base;
    }

    /// The next message id this NIC would allocate. Strictly
    /// monotonic for the life of the NIC: crashes, recoveries, and
    /// live management-plane mutations never rewind it, so the top
    /// 16 bits keep carrying the fabric member index set by
    /// [`PanicNic::set_msg_id_base`].
    #[must_use]
    pub fn msg_id_watermark(&self) -> u64 {
        self.next_msg_id
    }

    /// Tells this NIC its own index in a rack fabric, so chain hops
    /// remote-addressed to *it* resolve locally (see
    /// [`PanicNic::rx_remote`]). Standalone NICs never call this.
    pub fn set_fabric_index(&mut self, index: usize) {
        self.fabric_index = Some(index);
    }

    /// Routes a message that is leaving the pipeline or a tile toward
    /// its next chain hop, from mesh position `from`.
    fn route_onward(&mut self, from: EngineId, msg: Message, now: Cycle) {
        match msg.next_engine() {
            Some(next) => self.send_resolved(from, next, msg, now),
            None => {
                self.stats.unrouted += 1;
                self.tenancy_exit(msg.tenant, ExitKind::Unrouted, None, now);
            }
        }
    }

    /// Records a message exit with the tenancy plane, when one is
    /// engaged and the tenant belongs to a configured vNIC. A no-op
    /// otherwise, so untenanted runs pay one `is_some` check.
    fn tenancy_exit(
        &mut self,
        tenant: TenantId,
        kind: ExitKind,
        injected_at: Option<Cycle>,
        now: Cycle,
    ) {
        if let Some(tn) = self.tenancy.as_mut() {
            if tn.knows(tenant) {
                let latency = injected_at.map(|at| now.saturating_since(at));
                tn.note_exit(tenant, kind, latency);
            }
        }
    }

    /// Sends `msg` toward `dest`, applying the failover policy when
    /// `dest` is DOWN: rewrite the remaining chain hops onto the
    /// replica and send there, or — with no replica — deliver the
    /// message to the host (degraded but not lost).
    ///
    /// A *remote* `dest` ([`EngineId::is_remote`]) never enters this
    /// NIC's mesh: the message parks in the remote-egress buffer for
    /// the rack fabric to carry over an inter-NIC link, and this NIC's
    /// books close on it here (a `remote_tx` sink, a tenancy
    /// [`ExitKind::Remote`], a completed watchdog descriptor — the
    /// destination NIC owns the copy from the link onward).
    fn send_resolved(&mut self, from: EngineId, dest: EngineId, mut msg: Message, now: Cycle) {
        if dest.is_remote() {
            // Remote-addressed to *this* member: localize and stay on
            // the mesh — no ToR crossing, no remote_tx. This is how the
            // tail of a cross-NIC chain (encoded by the source NIC's
            // pipeline, every hop fabric-qualified) runs out on the
            // destination without bouncing through the uplink again.
            if self.fabric_index.is_some() && dest.remote_nic() == self.fabric_index {
                let local = dest.local_part();
                if !self.has_tile(local) {
                    self.stats.unrouted += 1;
                    self.tenancy_exit(msg.tenant, ExitKind::Unrouted, None, now);
                    return;
                }
                msg.chain.localize_current(local);
                self.send_resolved(from, local, msg, now);
                return;
            }
            if self.complete_descriptor(msg.id, now) {
                self.tenancy_exit(msg.tenant, ExitKind::Duplicate, None, now);
                return;
            }
            self.stats.remote_tx += 1;
            self.tenancy_exit(msg.tenant, ExitKind::Remote, None, now);
            if self.tracer.enabled() {
                self.tracer
                    .instant_arg(self.track, "nic.remote_tx", now, "msg", msg.id.0);
            }
            self.remote_egress.push(msg);
            return;
        }
        let redirect = match &self.faults {
            Some(fr) if fr.failover.contains_key(&dest) => fr.failover[&dest],
            _ => {
                self.network.send(from, dest, msg, now);
                return;
            }
        };
        match redirect {
            Some(replica) => {
                msg.chain.rewrite_pending(dest, replica);
                if self.tracer.enabled() {
                    self.tracer
                        .instant_arg(self.track, "failover.redirect", now, "msg", msg.id.0);
                }
                self.network.send(from, replica, msg, now);
            }
            None => {
                // Host fallback: the offload service is gone; hand the
                // packet to software instead of blackholing it. A late
                // duplicate is charged to `duplicates` instead.
                let duplicate = self.complete_descriptor(msg.id, now);
                if self.tracer.enabled() {
                    self.tracer
                        .instant_arg(self.track, "failover.host", now, "msg", msg.id.0);
                }
                if duplicate {
                    self.tenancy_exit(msg.tenant, ExitKind::Duplicate, None, now);
                } else {
                    self.stats.host_fallback += 1;
                    self.stats.record_latency(&msg, now);
                    self.tenancy_exit(
                        msg.tenant,
                        ExitKind::HostFallback,
                        Some(msg.injected_at),
                        now,
                    );
                    self.host_rx.push(msg);
                }
            }
        }
    }

    /// Marks descriptor `id` complete in the watchdog ledger. Returns
    /// true when this copy is a *late duplicate* of a descriptor that
    /// already completed (the caller must suppress the copy — it was
    /// charged to `duplicates`).
    fn complete_descriptor(&mut self, id: MessageId, now: Cycle) -> bool {
        let Some(fr) = &mut self.faults else {
            return false;
        };
        let Some(wd) = &mut fr.watchdog else {
            return false;
        };
        match wd.on_complete(id, now) {
            CompleteOutcome::First { recovery } => {
                if let Some(r) = recovery {
                    self.stats.recovery.record(r.count());
                    if self.tracer.enabled() {
                        self.tracer
                            .instant_arg(self.track, "watchdog.recovered", now, "msg", id.0);
                    }
                }
                false
            }
            CompleteOutcome::Duplicate => {
                self.stats.duplicates += 1;
                if self.tracer.enabled() {
                    self.tracer
                        .instant_arg(self.track, "watchdog.duplicate", now, "msg", id.0);
                }
                true
            }
            CompleteOutcome::Untracked => false,
        }
    }

    /// Handles a tile emission.
    fn handle_emit(&mut self, from: EngineId, emit: Emit, now: Cycle) {
        match emit {
            Emit::To(dest, msg) => self.send_resolved(from, dest, msg, now),
            Emit::ToPipeline(msg) => {
                if msg.kind == MessageKind::EthernetFrame {
                    let portal = self.next_portal();
                    self.network.send(from, portal, msg, now);
                } else if self.complete_descriptor(msg.id, now) {
                    self.tenancy_exit(msg.tenant, ExitKind::Duplicate, None, now);
                } else {
                    // A control message whose chain is complete has
                    // simply finished its job. (A late duplicate is
                    // charged to `duplicates` instead.)
                    self.stats.control_completed += 1;
                    self.tenancy_exit(msg.tenant, ExitKind::Control, None, now);
                }
            }
            Emit::Egress(engines::engine::EgressKind::Wire, msg) => {
                if self.complete_descriptor(msg.id, now) {
                    // late copy of an already-delivered frame
                    self.tenancy_exit(msg.tenant, ExitKind::Duplicate, None, now);
                    return;
                }
                self.stats.tx_wire += 1;
                self.stats.record_latency(&msg, now);
                self.tenancy_exit(msg.tenant, ExitKind::Wire, Some(msg.injected_at), now);
                self.tracer
                    .instant_arg(self.track, "nic.tx_wire", now, "msg", msg.id.0);
                self.wire_tx.push(msg);
            }
            Emit::Egress(engines::engine::EgressKind::Host, msg) => {
                if self.complete_descriptor(msg.id, now) {
                    // late copy of an already-delivered frame
                    self.tenancy_exit(msg.tenant, ExitKind::Duplicate, None, now);
                    return;
                }
                self.stats.host_deliveries += 1;
                self.stats.record_latency(&msg, now);
                self.tenancy_exit(msg.tenant, ExitKind::Host, Some(msg.injected_at), now);
                self.tracer
                    .instant_arg(self.track, "nic.host_delivery", now, "msg", msg.id.0);
                self.host_rx.push(msg);
            }
            Emit::Consumed(tenant) => {
                self.stats.consumed += 1;
                self.tenancy_exit(tenant, ExitKind::Consumed, None, now);
            }
        }
    }

    /// Advances the NIC one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // 0. Fault plane: fire due injection events, run the watchdog
        //    (engine health + descriptor deadlines). Fault-free NICs
        //    pay exactly this one branch.
        if self.faults.is_some() {
            self.drive_fault_plane(now);
        }

        // 0b. Tenancy plane: reconcile implicit exits (drops/flushes/
        //     losses return credits), then release pending messages
        //     that pass rate, credit, and deficit checks into the
        //     mesh. Untenanted NICs pay exactly this one branch.
        if let Some(tn) = &self.tenancy {
            if tn.pending_total() > 0 {
                self.stats.layer.tenancy += 1;
            }
            self.drive_tenancy(now);
        }

        // 1. Ejections: tiles pull from the mesh, portals feed the
        //    pipeline. The network's ejection-pending bitmask marks
        //    exactly the tiles with a flit waiting; testing it per
        //    slot skips the poll call for every idle tile while
        //    keeping the id-sorted visit order.
        for i in 0..self.tile_ids.len() {
            let t = self.slot_noc_tile[i] as usize;
            if self.network.ejection_pending_word(t / 64) & (1 << (t % 64)) == 0 {
                continue;
            }
            let id = self.tile_ids[i];
            match &mut self.tiles[i] {
                TileSlot::Engine(tile) => {
                    if tile.rx_ready() {
                        if let Some(msg) = self.network.poll_ejected(id, now) {
                            tile.accept(msg, now);
                        }
                    }
                }
                TileSlot::RmtPortal => {
                    // Management-plane gate: during a program swap the
                    // portal stops feeding the pipeline so it drains;
                    // flits wait in the NoC ejection buffer (lossless
                    // backpressure, and the network stays visibly
                    // non-quiescent so fast-forward hints remain
                    // conservative).
                    if !self.pipeline_gated {
                        if let Some(msg) = self.network.poll_ejected(id, now) {
                            self.pipeline.submit(msg);
                        }
                    }
                }
            }
        }

        // 2. Pipeline (into the reused scratch buffer).
        if self.pipeline.backlog() > 0 || self.pipeline.occupancy() > 0 {
            self.stats.layer.rmt += 1;
        }
        let mut outputs = std::mem::take(&mut self.pipeline_scratch);
        self.pipeline.tick_into(now, &mut outputs);
        for out in outputs.drain(..) {
            let mut msg = out.msg;
            if out.verdict == Verdict::Recirculate {
                // §3.1.2: "the RMT pipeline includes itself as a nexthop
                // in the chain so that it can generate the remainder of
                // the chain."
                let portal = self.next_portal();
                let slack = msg.chain.hops().last().map_or(Slack::BULK, |h| h.slack);
                msg.chain
                    .extend(&[Hop {
                        engine: portal,
                        slack,
                    }])
                    .expect("chain extension within MAX_HOPS");
            }
            let exit = self.next_portal();
            self.route_onward(exit, msg, now);
        }
        self.pipeline_scratch = outputs;

        // 3. Tiles (one reused emission buffer across all tiles).
        //    Workless tiles are skipped outright: their tick is a pure
        //    no-op apart from the progress-clock refresh, which
        //    `catch_up_idle` replays just before the tile next acts
        //    (the watchdog cannot observe the deferred clock meanwhile
        //    because `wedged` gates on held work).
        let mut emits = std::mem::take(&mut self.emit_scratch);
        let mut any_engine = false;
        let mut any_sched = false;
        for i in 0..self.tile_ids.len() {
            let id = self.tile_ids[i];
            match &mut self.tiles[i] {
                TileSlot::Engine(tile) => {
                    if !tile.has_work() {
                        self.tile_idle[i] = true;
                        continue;
                    }
                    any_engine = true;
                    any_sched |= tile.queue_depth() > 0;
                    if self.tile_idle[i] {
                        self.tile_idle[i] = false;
                        tile.catch_up_idle(now);
                    }
                    tile.tick_into(now, &mut emits);
                }
                TileSlot::RmtPortal => continue,
            }
            for emit in emits.drain(..) {
                self.handle_emit(id, emit, now);
            }
        }
        self.emit_scratch = emits;
        self.stats.layer.engines += u64::from(any_engine);
        self.stats.layer.sched += u64::from(any_sched);

        // 3b. PCIe coalescing flush timer.
        let flush = self.config.pcie_flush_interval;
        if flush > 0 && now.0 > 0 && now.0.is_multiple_of(flush) {
            for i in 0..self.tiles.len() {
                let TileSlot::Engine(tile) = &mut self.tiles[i] else {
                    continue;
                };
                let Some(pcie) = tile.offload_as_mut::<PcieEngine>() else {
                    continue;
                };
                if let Some(engines::engine::Output::Egress(_, msg)) = pcie.flush() {
                    self.stats.host_deliveries += 1;
                    self.tenancy_exit(msg.tenant, ExitKind::Host, None, now);
                    self.host_rx.push(msg);
                }
            }
        }

        // 4. Mesh.
        self.network.tick(now);
    }

    // ---- tenancy driver --------------------------------------------

    /// One tenancy-plane step. First reconciles *implicit* exits —
    /// per-tenant scheduler drops, watchdog flushes, and NoC losses
    /// counted by the components themselves — so the buffer credits
    /// those copies held return to their tenants. Then runs the
    /// release scheduler (token-bucket rate → credit admission → DRR
    /// deficit → SFQ rank spreading), sending each released message
    /// into the mesh exactly as the direct `rx_frame` path would.
    ///
    /// Uses the same take-pattern as [`PanicNic::drive_fault_plane`]
    /// so the emit closure can borrow the rest of the NIC.
    fn drive_tenancy(&mut self, now: Cycle) {
        let Some(mut tn) = self.tenancy.take() else {
            return;
        };
        tn.sync_implicit_all(|t| {
            let mut implicit = self.network.lost_of(t);
            for slot in self.tiles.iter() {
                if let TileSlot::Engine(tile) = slot {
                    implicit += tile.queue_stats().dropped_of(t);
                    implicit += tile.stats().flushed_of(t);
                }
            }
            implicit
        });
        tn.release(now, |_, msg| {
            let src = msg.source;
            self.watchdog_track(&msg, src, now);
            let portal = self.next_portal();
            self.network.send(src, portal, msg, now);
        });
        self.tenancy = Some(tn);
    }

    /// The tenancy runtime (ledgers, latency histograms, vNIC
    /// catalog), when the tenancy plane is engaged.
    #[must_use]
    pub fn tenancy(&self) -> Option<&TenancyRuntime> {
        self.tenancy.as_deref()
    }

    /// Per-tenant copy-level conservation identity (see
    /// [`TenantConservation`]): everything `tenant` submitted or the
    /// watchdog re-issued on its behalf is delivered, absorbed,
    /// dropped, or still pending. `None` when the tenancy plane is
    /// off or `tenant` has no vNIC. Meaningful once
    /// `is_quiescent() && faults_settled()`.
    #[must_use]
    pub fn tenant_conservation(&self, tenant: TenantId) -> Option<TenantConservation> {
        let tn = self.tenancy.as_ref()?;
        let mut c = tn.conservation_base(tenant)?;
        for slot in self.tiles.iter() {
            if let TileSlot::Engine(t) = slot {
                c.sched_drops += t.queue_stats().dropped_of(tenant);
                c.flushed += t.stats().flushed_of(tenant);
            }
        }
        c.lost_noc = self.network.lost_of(tenant);
        Some(c)
    }

    // ---- management-plane hooks ------------------------------------
    //
    // The primitives `panic-ctrl`'s `CtrlEndpoint` drives between
    // cycles. Each is safe to call mid-run; drain preconditions are
    // asserted rather than awaited — the endpoint owns the waiting
    // (see docs/CONTROL.md).

    /// Mutable access to the tenancy runtime for live parameter
    /// rewrites (rate / weight / quota / removal). `None` when the
    /// tenancy plane is off — use [`PanicNic::ctrl_add_vnic`] to
    /// engage it.
    pub fn tenancy_mut(&mut self) -> Option<&mut TenancyRuntime> {
        self.tenancy.as_deref_mut()
    }

    /// Adds a tenant vNIC live, engaging the tenancy plane (with
    /// default pool parameters) if the NIC was untenanted. The new
    /// vNIC's implicit-exit baseline is seeded from the component
    /// stats *now*, so drops or losses attributed to this tenant id
    /// before the vNIC existed cannot return credits it never charged.
    /// Returns `false` if the tenant already has a vNIC.
    pub fn ctrl_add_vnic(&mut self, spec: tenancy::VNicSpec) -> bool {
        let tenant = spec.tenant;
        let mut baseline = self.network.lost_of(tenant);
        for slot in self.tiles.iter() {
            if let TileSlot::Engine(tile) = slot {
                baseline += tile.queue_stats().dropped_of(tenant);
                baseline += tile.stats().flushed_of(tenant);
            }
        }
        let tn = self.tenancy.get_or_insert_with(|| {
            let mut tn = Box::new(TenancyRuntime::new(TenancyConfig::new(Vec::new())));
            tn.attach_tracer(&self.tracer);
            tn
        });
        tn.add_vnic(spec, baseline)
    }

    /// Closes (or reopens) the pipeline gate. While shut, portals stop
    /// submitting and the pipeline drains; arriving traffic waits in
    /// the NoC ejection buffers. Used by the management plane around
    /// [`PanicNic::swap_program`].
    pub fn set_pipeline_gate(&mut self, gated: bool) {
        self.pipeline_gated = gated;
    }

    /// True while the management plane holds the pipeline gate shut.
    #[must_use]
    pub fn pipeline_gated(&self) -> bool {
        self.pipeline_gated
    }

    /// True when the gate is shut *and* the pipeline has fully drained
    /// (no backlog, nothing inside the stages) — the precondition for
    /// [`PanicNic::swap_program`].
    #[must_use]
    pub fn pipeline_drained(&self) -> bool {
        self.pipeline_gated && self.pipeline.backlog() == 0 && self.pipeline.occupancy() == 0
    }

    /// Hot-swaps the RMT program, re-lowering it through
    /// `rmt::compile`. The gate stays shut; the caller reopens it with
    /// [`PanicNic::set_pipeline_gate`]`(false)` once the new epoch
    /// begins.
    ///
    /// # Panics
    /// Panics unless [`PanicNic::pipeline_drained`] holds.
    pub fn swap_program(&mut self, program: RmtProgram) {
        assert!(
            self.pipeline_drained(),
            "program swap before the pipeline drained (gate the pipeline and wait)"
        );
        self.pipeline.set_program(program);
    }

    // ---- fault-plane driver ----------------------------------------

    /// One fault-plane step: fire due plan events, then (on watchdog
    /// check cycles) scan engine health and expire descriptor
    /// deadlines. Runs before anything else in the tick so a fault
    /// scheduled "at cycle N" is visible to every component during
    /// cycle N.
    fn drive_fault_plane(&mut self, now: Cycle) {
        let Some(mut fr) = self.faults.take() else {
            return;
        };

        // 1. Injection plan.
        while fr.cursor < fr.plan.len() && fr.plan.events()[fr.cursor].at <= now {
            let ev = fr.plan.events()[fr.cursor];
            fr.cursor += 1;
            self.apply_fault(&mut fr, ev.kind, now);
        }

        // 2. Watchdog (every `check_interval` cycles).
        if let Some(wd) = &fr.watchdog {
            let interval = wd.config().check_interval.count().max(1);
            if now.0.is_multiple_of(interval) {
                self.watchdog_check(&mut fr, now);
            }
        }

        self.faults = Some(fr);
    }

    /// Applies one planned fault event to the component it targets.
    fn apply_fault(&mut self, fr: &mut FaultRuntime, kind: FaultKind, now: Cycle) {
        let port_of = |p: u8| noc::router::PortDir::ALL[usize::from(p) % 5];
        let name = match kind {
            FaultKind::EngineCrash { .. } => "fault.crash",
            FaultKind::EngineStall { .. } => "fault.stall",
            FaultKind::EngineDegrade { .. } => "fault.degrade",
            FaultKind::SchedRefuse { .. } => "fault.refuse",
            FaultKind::LinkSlow { .. } => "fault.slow",
            FaultKind::CreditHold { .. } => "fault.hold",
            FaultKind::FlitDrop { .. } => "fault.drop",
        };
        match kind {
            FaultKind::EngineCrash { engine } => {
                if let Some(t) = self.tile_mut(engine) {
                    t.fault_crash();
                }
            }
            FaultKind::EngineStall { engine, duration } => {
                if let Some(t) = self.tile_mut(engine) {
                    t.fault_stall(now + duration);
                }
            }
            FaultKind::EngineDegrade { engine, factor } => {
                if let Some(t) = self.tile_mut(engine) {
                    t.fault_degrade(factor);
                }
            }
            FaultKind::SchedRefuse { engine, duration } => {
                if let Some(t) = self.tile_mut(engine) {
                    t.fault_refuse_until(now + duration);
                }
            }
            FaultKind::LinkSlow {
                engine,
                port,
                duration,
                period,
            } => {
                if self.has_tile(engine) {
                    self.network
                        .fault_link_slow(engine, port_of(port), now + duration, period);
                }
            }
            FaultKind::CreditHold {
                engine,
                port,
                credits,
                duration,
            } => {
                if self.has_tile(engine) {
                    let _taken = self.network.fault_hold_credits(
                        engine,
                        port_of(port),
                        credits as usize,
                        now + duration,
                    );
                }
            }
            FaultKind::FlitDrop { engine } => {
                if self.has_tile(engine) {
                    self.network.fault_drop_next_ejection(engine);
                }
            }
        }
        if self.tracer.enabled() {
            let track = *fr.track.get_or_insert_with(|| self.tracer.track("faults"));
            self.tracer
                .instant_arg(track, name, now, "engine", u64::from(kind.engine().0));
        }
    }

    /// Engine-health scan plus descriptor-deadline expiry.
    fn watchdog_check(&mut self, fr: &mut FaultRuntime, now: Cycle) {
        let Some(wd) = &mut fr.watchdog else {
            return;
        };
        let timeout = wd.config().engine_timeout;
        let down_after = wd.config().down_after.max(1);
        let failover_enabled = wd.config().failover;

        // 1. Health: consecutive wedged observations accumulate
        //    strikes; any progress clears them. `down_after` strikes
        //    isolate the engine.
        let mut to_down: Vec<EngineId> = Vec::new();
        for (&id, slot) in self.tile_ids.iter().zip(&self.tiles) {
            let TileSlot::Engine(t) = slot else { continue };
            if t.is_down() {
                continue;
            }
            if t.wedged(now, timeout) {
                let entry = fr.strikes.entry(id).or_insert((0, now));
                entry.0 += 1;
                if entry.0 >= down_after {
                    to_down.push(id);
                }
            } else {
                fr.strikes.remove(&id);
            }
        }
        for id in to_down {
            let (_, first_wedge) = fr.strikes.remove(&id).unwrap_or((0, now));
            self.stats
                .time_to_failover
                .record(now.saturating_since(first_wedge).count());
            let replica = if failover_enabled {
                self.find_replica(id)
            } else {
                None
            };
            let flushed = self
                .tile_mut(id)
                .map_or(0, engines::tile::EngineTile::watchdog_down);
            fr.downed.push(id);
            fr.failover.insert(id, replica);
            if self.tracer.enabled() {
                let track = *fr.track.get_or_insert_with(|| self.tracer.track("faults"));
                self.tracer
                    .instant_arg(track, "watchdog.down", now, "engine", u64::from(id.0));
                self.tracer
                    .instant_arg(track, "watchdog.flush", now, "count", flushed);
                match replica {
                    Some(r) => self.tracer.instant_arg(
                        track,
                        "failover.replica",
                        now,
                        "engine",
                        u64::from(r.0),
                    ),
                    None => self.tracer.instant_arg(
                        track,
                        "failover.host",
                        now,
                        "engine",
                        u64::from(id.0),
                    ),
                }
            }
        }

        // 2. Descriptor deadlines: re-issue with backoff, or give up.
        let Some(wd) = &mut fr.watchdog else {
            return;
        };
        for expiry in wd.expired(now) {
            match expiry.action {
                ExpiryAction::Reissue {
                    msg,
                    source,
                    attempt,
                } => {
                    self.stats.reissued += 1;
                    if let Some(tn) = self.tenancy.as_mut() {
                        if tn.knows(msg.tenant) {
                            tn.note_reissued(msg.tenant);
                        }
                    }
                    if self.tracer.enabled() {
                        let track = *fr.track.get_or_insert_with(|| self.tracer.track("faults"));
                        self.tracer.instant_arg(
                            track,
                            "watchdog.reissue",
                            now,
                            "attempt",
                            u64::from(attempt),
                        );
                    }
                    let portal = self.next_portal();
                    self.network.send(source, portal, *msg, now);
                }
                ExpiryAction::Fail => {
                    self.stats.failed += 1;
                    if self.tracer.enabled() {
                        let track = *fr.track.get_or_insert_with(|| self.tracer.track("faults"));
                        self.tracer
                            .instant_arg(track, "watchdog.fail", now, "msg", expiry.id.0);
                    }
                }
            }
        }
    }

    /// Failover policy: a replica for `down` is the lowest-id healthy
    /// engine of the *same offload type* — same
    /// [`packet::chain::EngineClass`] and the same name stem (name
    /// minus a trailing replica index: `crc0`/`crc1` are replicas of
    /// each other, `crc`/`aes` are not).
    fn find_replica(&self, down: EngineId) -> Option<EngineId> {
        let tile = self.tile(down)?;
        let stem = faults::name_stem(tile.offload_name()).to_string();
        let class = tile.offload().class();
        self.tile_ids
            .iter()
            .zip(&self.tiles)
            .find_map(|(&id, slot)| match slot {
                TileSlot::Engine(t)
                    if id != down
                        && !t.is_down()
                        && !t.is_crashed()
                        && t.offload().class() == class
                        && faults::name_stem(t.offload_name()) == stem =>
                {
                    Some(id)
                }
                _ => None,
            })
    }

    /// Runs `cycles` cycles from `start`, one tick per cycle, returning
    /// the next cycle.
    pub fn run(&mut self, start: Cycle, cycles: u64) -> Cycle {
        drive(self, start, cycles, Advance::Stepped).0
    }

    /// Runs `cycles` cycles from `start` with quiescence fast-forward
    /// ([`Advance::Merged`]): after each tick the clock jumps to
    /// [`PanicNic::next_activity`], replaying the skipped idle ticks'
    /// bookkeeping via [`PanicNic::skip_idle`] so traces, metrics, and
    /// conservation counts stay byte-identical to a stepped run (see
    /// `docs/PERF.md`).
    ///
    /// Returns the next cycle and the number of cycles skipped.
    pub fn run_ff(&mut self, start: Cycle, cycles: u64) -> (Cycle, u64) {
        drive(self, start, cycles, Advance::Merged)
    }

    /// Runs `cycles` cycles from `start` event-driven
    /// ([`Advance::Wheel`]). Observable state is byte-identical to
    /// [`PanicNic::run`] and [`PanicNic::run_ff`]; only the skip count
    /// may differ.
    ///
    /// Returns the next cycle and the number of cycles skipped.
    pub fn run_event(&mut self, start: Cycle, cycles: u64) -> (Cycle, u64) {
        drive(self, start, cycles, Advance::Wheel)
    }

    /// Fast-forward hint: the earliest future cycle at which any NIC
    /// component could do observable work, or `None` when the whole NIC
    /// is quiescent (no in-flight message anywhere, no pending fault
    /// event, no armed timer).
    ///
    /// The hint is the minimum over:
    /// * the mesh (active whenever any flit is buffered anywhere);
    /// * the heavyweight pipeline (backlog → next cycle; in-flight
    ///   only → its earliest completion);
    /// * every engine tile (queue/pending → next cycle; in service →
    ///   completion; stalled → wake; DOWN/crashed → never);
    /// * the fault plane (next planned event; next watchdog check
    ///   while anything is tracked, striking, or holding work);
    /// * the PCIe flush timer (next multiple of the flush interval
    ///   while any coalescer holds pending events).
    #[must_use]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let mut hint = Cycle::earliest(
            self.network.next_activity(now),
            self.pipeline.next_activity(now),
        );
        for slot in self.tiles.iter() {
            if let TileSlot::Engine(t) = slot {
                hint = Cycle::earliest(hint, t.next_activity(now));
            }
        }
        hint = Cycle::earliest(hint, self.fault_plane_next_activity(now));
        hint = Cycle::earliest(hint, self.pcie_flush_next_activity(now));
        hint = Cycle::earliest(
            hint,
            self.tenancy.as_ref().and_then(|t| t.next_activity(now)),
        );
        hint
    }

    /// Replays the per-cycle bookkeeping of the skipped idle cycles
    /// `[from, to)` (pipeline idle-slot accounting and traced backlog
    /// samples, tile busy/progress clocks). The mesh has nothing to
    /// replay — see [`MeshNetwork::next_activity`].
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.pipeline.skip_idle(from, to);
        for slot in self.tiles.iter_mut() {
            if let TileSlot::Engine(t) = slot {
                t.skip_idle(from, to);
            }
        }
        if let Some(tn) = self.tenancy.as_mut() {
            tn.skip_idle(from, to);
        }
        // Replay the per-layer cycle attribution the skipped ticks
        // would have charged. Held work is constant across an idle
        // window (nothing ticks, nothing arrives — that is what made
        // it skippable), so one check per layer covers the whole span.
        let span = to.0 - from.0;
        if self.pipeline.backlog() > 0 || self.pipeline.occupancy() > 0 {
            self.stats.layer.rmt += span;
        }
        let mut any_engine = false;
        let mut any_sched = false;
        for slot in self.tiles.iter() {
            if let TileSlot::Engine(t) = slot {
                any_engine |= t.has_work();
                any_sched |= t.queue_depth() > 0;
            }
        }
        self.stats.layer.engines += span * u64::from(any_engine);
        self.stats.layer.sched += span * u64::from(any_sched);
        if self
            .tenancy
            .as_ref()
            .is_some_and(|tn| tn.pending_total() > 0)
        {
            self.stats.layer.tenancy += span;
        }
    }

    /// Fault-plane contribution to [`PanicNic::next_activity`].
    fn fault_plane_next_activity(&self, now: Cycle) -> Option<Cycle> {
        let fr = self.faults.as_ref()?;
        let mut hint = None;
        if fr.cursor < fr.plan.len() {
            // Next planned injection (events whose cycle already passed
            // fire on the next tick).
            let at = fr.plan.events()[fr.cursor].at;
            hint = Some(at.max(now.next()));
        }
        if let Some(wd) = &fr.watchdog {
            // A watchdog check only mutates state while descriptors are
            // tracked, strikes are accruing, or some tile holds work (a
            // frozen tile wedges without ever hinting activity itself);
            // checks outside those conditions are pure no-ops and safe
            // to skip.
            let relevant = wd.pending() > 0
                || !fr.strikes.is_empty()
                || self.tiles.iter().any(|slot| match slot {
                    TileSlot::Engine(t) => t.queue_depth() > 0 || t.is_busy() || !t.rx_ready(),
                    TileSlot::RmtPortal => false,
                });
            if relevant {
                let interval = wd.config().check_interval.count().max(1);
                let next_check = Cycle((now.0 / interval + 1) * interval);
                hint = Cycle::earliest(hint, Some(next_check));
            }
        }
        hint
    }

    /// PCIe flush-timer contribution to [`PanicNic::next_activity`]:
    /// the next flush cycle while any coalescer holds pending events
    /// (flushing an empty coalescer is a no-op, so idle multiples are
    /// safe to skip).
    fn pcie_flush_next_activity(&self, now: Cycle) -> Option<Cycle> {
        let flush = self.config.pcie_flush_interval;
        if flush == 0 {
            return None;
        }
        let pending = self.tiles.iter().any(|slot| match slot {
            TileSlot::Engine(t) => t
                .offload_as::<PcieEngine>()
                .is_some_and(|p| p.pending() > 0),
            TileSlot::RmtPortal => false,
        });
        if pending {
            Some(Cycle((now.0 / flush + 1) * flush))
        } else {
            None
        }
    }

    /// Drains frames transmitted on the wire since the last call into
    /// `out`, keeping the internal buffer's allocation (the zero-alloc
    /// alternative to [`PanicNic::take_wire_tx`]).
    pub fn drain_wire_tx_into(&mut self, out: &mut Vec<Message>) {
        out.append(&mut self.wire_tx);
    }

    /// Drains host deliveries since the last call into `out`, keeping
    /// the internal buffer's allocation.
    pub fn drain_host_rx_into(&mut self, out: &mut Vec<Message>) {
        out.append(&mut self.host_rx);
    }

    /// True when nothing is in flight anywhere (mesh, pipeline, tile
    /// queues/service, or the fabric-egress buffer).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.remote_egress.is_empty()
            && self.network.is_quiescent()
            && self.pipeline.backlog() == 0
            && self.pipeline.occupancy() == 0
            && self.tiles.iter().all(|slot| match slot {
                TileSlot::Engine(t) => t.queue_depth() == 0 && !t.is_busy() && t.rx_ready(),
                TileSlot::RmtPortal => true,
            })
            && self.tenancy.as_ref().is_none_or(|t| t.pending_total() == 0)
    }
}

/// The NIC alone: no workload, one wake source, never done.
impl Driven for PanicNic {
    fn step(&mut self, now: Cycle) {
        self.tick(now);
    }
    fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle)) -> bool {
        if let Some(t) = self.next_activity(now) {
            post(t);
        }
        true
    }
    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        PanicNic::skip_idle(self, from, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::engine::NullOffload;
    use packet::chain::EngineClass;
    use rmt::action::{Action, Primitive, SlackExpr};
    use rmt::parse::ParseGraph;
    use rmt::program::ProgramBuilder;
    use rmt::table::{MatchKind, Table};
    use sim_core::time::Cycles;
    use trace::MetricsRegistry;
    use workloads::frames::FrameFactory;

    /// A minimal NIC: one "eth" null engine (frames end here and fall
    /// back to the pipeline — not used as egress), one pass-through
    /// offload, one sink engine that the program chains through.
    fn tiny_nic() -> (PanicNic, EngineId, EngineId, EngineId) {
        let (b, eth, off, portal) = tiny_builder();
        (b.build(), eth, off, portal)
    }

    /// The builder behind [`tiny_nic`], for spec/validation tests.
    fn tiny_builder() -> (NicBuilder, EngineId, EngineId, EngineId) {
        let mut b = PanicNic::builder(NicConfig {
            topology: Topology::mesh(3, 3),
            width_bits: 64,
            router: RouterConfig::default(),
            pipeline: PipelineConfig {
                parallel: 1,
                depth: 3,
                freq: sim_core::time::Freq::mhz(500),
            },
            pcie_flush_interval: 0,
        });
        let eth = b.engine(
            Box::new(engines::mac::MacEngine::new(
                "eth0",
                sim_core::time::Bandwidth::gbps(100),
                sim_core::time::Freq::mhz(500),
            )),
            TileConfig::default(),
        );
        let off = b.engine(
            Box::new(NullOffload::new("off", EngineClass::Asic, Cycles(2))),
            TileConfig::default(),
        );
        let _portal = b.rmt_portal();
        // Program: route every frame through `off` then to `eth` (TX).
        let table = Table::new(
            "route",
            MatchKind::Exact(vec![packet::phv::Field::EthType]),
            Action::named(
                "chain",
                vec![
                    Primitive::PushHop {
                        engine: off,
                        slack: SlackExpr::Const(100),
                    },
                    Primitive::PushHop {
                        engine: eth,
                        slack: SlackExpr::Const(200),
                    },
                ],
            ),
        );
        b.program(
            ProgramBuilder::new("tiny", ParseGraph::standard(6379))
                .stage(table)
                .build(),
        );
        (b, eth, off, _portal)
    }

    #[test]
    fn frame_flows_port_to_pipeline_to_chain_to_wire() {
        let (mut nic, eth, off, _) = tiny_nic();
        let mut f = FrameFactory::for_nic_port(0);
        let frame = f.min_frame(1, 80);
        let mut now = Cycle(0);
        nic.rx_frame(eth, frame.clone(), TenantId(1), Priority::Normal, now);

        let mut tx = Vec::new();
        for _ in 0..500 {
            nic.tick(now);
            now = now.next();
            tx.extend(nic.take_wire_tx());
            if !tx.is_empty() {
                break;
            }
        }
        assert_eq!(tx.len(), 1, "frame transmitted");
        assert_eq!(tx[0].payload.len(), frame.len());
        assert_eq!(tx[0].pipeline_passes, 1);
        assert_eq!(nic.stats().tx_wire, 1);
        assert_eq!(nic.stats().rx_frames, 1);
        // The offload engine saw it.
        assert_eq!(nic.tile(off).unwrap().stats().processed, 1);
        // End-to-end latency recorded under Normal.
        assert_eq!(nic.stats().latency_of(Priority::Normal).count(), 1);
        assert!(nic.is_quiescent());
    }

    #[test]
    fn many_frames_all_accounted() {
        let (mut nic, eth, _, _) = tiny_nic();
        let mut f = FrameFactory::for_nic_port(0);
        let mut now = Cycle(0);
        let n = 50;
        for i in 0..n {
            let frame = f.min_frame(i as u16, 80);
            nic.rx_frame(eth, frame, TenantId(1), Priority::Normal, now);
        }
        let mut tx = 0;
        for _ in 0..20_000 {
            nic.tick(now);
            now = now.next();
            tx += nic.take_wire_tx().len();
            if tx == n {
                break;
            }
        }
        assert_eq!(tx, n, "all frames transmitted");
        assert!(nic.is_quiescent());
        // Conservation: everything injected egressed.
        assert_eq!(nic.stats().rx_frames as usize, n);
        assert_eq!(nic.stats().tx_wire as usize, n);
        assert_eq!(nic.stats().unrouted, 0);
        assert_eq!(nic.stats().consumed, 0);
    }

    #[test]
    fn fast_forward_matches_stepped_run() {
        // Gap-dominated workload: three frames 400 cycles apart, then a
        // long drain. The fast-forwarded run must be byte-identical to
        // the stepped run — same Chrome trace, same metrics JSON.
        let run = |ff: bool| {
            let (mut nic, eth, _, _) = tiny_nic();
            let tracer = Tracer::ring(8192);
            nic.attach_tracer(&tracer);
            let mut f = FrameFactory::for_nic_port(0);
            let mut now = Cycle(0);
            let mut skipped_total = 0u64;
            for burst in 0..3u64 {
                let at = Cycle(burst * 400);
                let gap = at.0 - now.0;
                if ff {
                    let (n, skipped) = nic.run_ff(now, gap);
                    now = n;
                    skipped_total += skipped;
                } else {
                    now = nic.run(now, gap);
                }
                nic.rx_frame(
                    eth,
                    f.min_frame(burst as u16, 80),
                    TenantId(1),
                    Priority::Normal,
                    now,
                );
            }
            if ff {
                let (n, skipped) = nic.run_ff(now, 2000 - now.0);
                now = n;
                skipped_total += skipped;
                assert!(skipped > 0, "gap-dominated run must skip cycles");
            } else {
                now = nic.run(now, 2000 - now.0);
            }
            assert_eq!(now, Cycle(2000));
            assert!(nic.is_quiescent());
            let mut m = MetricsRegistry::new();
            nic.export_metrics(&mut m);
            (
                m.to_json(),
                tracer.chrome_json(),
                nic.take_wire_tx().len(),
                skipped_total,
            )
        };
        let (m_s, t_s, tx_s, _) = run(false);
        let (m_f, t_f, tx_f, skipped) = run(true);
        assert_eq!(tx_s, tx_f);
        assert_eq!(m_s, m_f, "metrics must be byte-identical");
        assert_eq!(t_s, t_f, "traces must be byte-identical");
        assert!(skipped > 1000, "most of the run is idle: skipped={skipped}");
    }

    #[test]
    fn next_activity_none_when_quiescent() {
        let (mut nic, eth, _, _) = tiny_nic();
        assert_eq!(nic.next_activity(Cycle(0)), None);
        let mut f = FrameFactory::for_nic_port(0);
        nic.rx_frame(
            eth,
            f.min_frame(1, 80),
            TenantId(1),
            Priority::Normal,
            Cycle(0),
        );
        assert!(nic.next_activity(Cycle(0)).is_some());
        let (end, _) = nic.run_ff(Cycle(0), 1000);
        assert!(nic.is_quiescent());
        assert_eq!(nic.next_activity(end), None);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut nic, eth, _, _) = tiny_nic();
            let mut f = FrameFactory::for_nic_port(0);
            let mut now = Cycle(0);
            for i in 0..20 {
                nic.rx_frame(eth, f.min_frame(i, 80), TenantId(1), Priority::Normal, now);
            }
            let mut log = Vec::new();
            for _ in 0..3000 {
                nic.tick(now);
                now = now.next();
                for m in nic.take_wire_tx() {
                    log.push((now.0, m.id.0));
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracer_covers_all_four_component_kinds() {
        let (mut nic, eth, _, _) = tiny_nic();
        let tracer = Tracer::chrome();
        nic.attach_tracer(&tracer);
        let mut f = FrameFactory::for_nic_port(0);
        let mut now = Cycle(0);
        for i in 0..5 {
            nic.rx_frame(eth, f.min_frame(i, 80), TenantId(1), Priority::Normal, now);
        }
        for _ in 0..2000 {
            nic.tick(now);
            now = now.next();
            if nic.is_quiescent() {
                break;
            }
        }
        let json = tracer.chrome_json().unwrap();
        trace::json::validate(&json).unwrap();
        // The acceptance criterion: one trace containing router, engine,
        // scheduler, and RMT events, plus the NIC boundary.
        // (The tiny program has no table entries, so every stage lookup
        // takes the default action: a miss.)
        for needle in [
            "noc.hop",
            "engine.service",
            "sched.push",
            "rmt.miss",
            "rmt.pipeline",
            "nic.rx_frame",
            "nic.tx_wire",
        ] {
            assert!(json.contains(needle), "trace missing {needle}:\n{json}");
        }

        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m);
        assert_eq!(m.counter("nic.rx_frames"), Some(5));
        assert_eq!(m.counter("nic.tx_wire"), Some(5));
        assert!(m.counter("noc.flit_hops").unwrap() > 0);
        assert!(m.counter("rmt.accepted").unwrap() > 0);
        assert_eq!(m.histogram("nic.latency.normal").unwrap().count(), 5);
        assert!(m.histogram("engine.1.off.service").is_some());
        trace::json::validate(&m.to_json()).unwrap();
    }

    #[test]
    #[should_panic(expected = "without a program")]
    fn build_without_program_panics() {
        let mut b = PanicNic::builder(NicConfig::small());
        let _ = b.rmt_portal();
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "at least one RMT portal")]
    fn build_without_portal_panics() {
        let mut b = PanicNic::builder(NicConfig::small());
        b.program(
            ProgramBuilder::new("p", ParseGraph::standard(6379))
                .stage(Table::new(
                    "t",
                    MatchKind::Exact(vec![packet::phv::Field::EthType]),
                    Action::noop(),
                ))
                .build(),
        );
        let _ = b.build();
    }

    #[test]
    fn builder_spec_reflects_configuration() {
        let (b, _, _, _) = tiny_builder();
        let spec = b.to_spec();
        // Two engines + one portal.
        assert_eq!(spec.engines.len(), 3);
        assert_eq!(spec.ports, 1, "one MAC engine counted as a port");
        assert_eq!(
            spec.line_rate,
            sim_core::time::Bandwidth::gbps(100),
            "line rate lifted from the MAC"
        );
        assert!(spec.engines.iter().any(|e| e.is_portal));
        assert!(spec.program.is_some());
        let report = b.validate();
        assert_eq!(report.error_count(), 0, "{}", report.render_human());
    }

    #[test]
    #[should_panic(expected = "failed verification")]
    fn build_rejects_chain_to_unknown_engine() {
        // PV001: the program pushes a hop to an engine id that does not
        // exist on the mesh. The runtime would only discover this when
        // a message tried to route there; the verifier refuses upfront.
        let mut b = PanicNic::builder(NicConfig::small());
        let _eth = b.engine(
            Box::new(NullOffload::new(
                "eth",
                EngineClass::EthernetPort,
                Cycles(1),
            )),
            TileConfig::default(),
        );
        let _ = b.rmt_portal();
        b.program(
            ProgramBuilder::new("bad", ParseGraph::standard(6379))
                .stage(Table::new(
                    "t",
                    MatchKind::Exact(vec![packet::phv::Field::EthType]),
                    Action::named(
                        "to-nowhere",
                        vec![Primitive::PushHop {
                            engine: EngineId(99),
                            slack: SlackExpr::Const(10),
                        }],
                    ),
                ))
                .build(),
        );
        let _ = b.build();
    }

    #[test]
    fn build_unvalidated_skips_the_linter() {
        // The same broken program as above constructs fine through the
        // escape hatch (messages routed to the ghost engine would be
        // dropped as unrouted at runtime).
        let mut b = PanicNic::builder(NicConfig::small());
        let _eth = b.engine(
            Box::new(NullOffload::new(
                "eth",
                EngineClass::EthernetPort,
                Cycles(1),
            )),
            TileConfig::default(),
        );
        let _ = b.rmt_portal();
        b.program(
            ProgramBuilder::new("bad", ParseGraph::standard(6379))
                .stage(Table::new(
                    "t",
                    MatchKind::Exact(vec![packet::phv::Field::EthType]),
                    Action::named(
                        "to-nowhere",
                        vec![Primitive::PushHop {
                            engine: EngineId(99),
                            slack: SlackExpr::Const(10),
                        }],
                    ),
                ))
                .build(),
        );
        let report = b.validate();
        assert!(report.error_count() > 0, "PV001 expected");
        let _nic = b.build_unvalidated();
    }

    /// A NIC with two replica offloads (`off0`, `off1` — same stem,
    /// same class) and the program chaining through `off0`, plus an
    /// armed watchdog. The fault-plane acceptance scenario.
    fn replicated_nic(watchdog: WatchdogConfig) -> (PanicNic, EngineId, EngineId, EngineId) {
        let mut b = PanicNic::builder(NicConfig {
            topology: Topology::mesh(3, 3),
            width_bits: 64,
            router: RouterConfig::default(),
            pipeline: PipelineConfig {
                parallel: 1,
                depth: 3,
                freq: sim_core::time::Freq::mhz(500),
            },
            pcie_flush_interval: 0,
        });
        let eth = b.engine(
            Box::new(engines::mac::MacEngine::new(
                "eth0",
                sim_core::time::Bandwidth::gbps(100),
                sim_core::time::Freq::mhz(500),
            )),
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
        let _portal = b.rmt_portal();
        let table = Table::new(
            "route",
            MatchKind::Exact(vec![packet::phv::Field::EthType]),
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
        );
        b.program(
            ProgramBuilder::new("replicated", ParseGraph::standard(6379))
                .stage(table)
                .build(),
        );
        b.watchdog(watchdog);
        (b.build(), eth, off0, off1)
    }

    fn chaos_watchdog() -> WatchdogConfig {
        WatchdogConfig {
            deadline: sim_core::time::Cycles(256),
            max_retries: 4,
            backoff: 2,
            engine_timeout: sim_core::time::Cycles(64),
            down_after: 2,
            check_interval: sim_core::time::Cycles(16),
            failover: true,
        }
    }

    /// Drives `nic` while feeding `n` frames one per `gap` cycles,
    /// returning the cycle after everything drained.
    fn feed_and_drain(nic: &mut PanicNic, eth: EngineId, n: u64, gap: u64) -> Cycle {
        let mut f = FrameFactory::for_nic_port(0);
        let mut now = Cycle(0);
        let mut sent = 0u64;
        for _ in 0..100_000u64 {
            if sent < n && now.0.is_multiple_of(gap) {
                nic.rx_frame(
                    eth,
                    f.min_frame(sent as u16, 80),
                    TenantId(1),
                    Priority::Normal,
                    now,
                );
                sent += 1;
            }
            nic.tick(now);
            now = now.next();
            if sent == n && nic.is_quiescent() && nic.faults_settled() {
                return now;
            }
        }
        panic!(
            "NIC failed to drain under faults: {:?}\n{}",
            nic.stats(),
            nic.conservation()
        );
    }

    #[test]
    fn crash_watchdog_failover_to_replica_conserves() {
        let (mut nic, eth, off0, off1) = replicated_nic(chaos_watchdog());
        nic.enable_faults(faults::FaultPlan::parse("crash:1@100").unwrap());
        assert_eq!(off0, EngineId(1), "plan targets off0");
        feed_and_drain(&mut nic, eth, 40, 25);

        // The watchdog detected the crash and isolated off0.
        assert_eq!(nic.downed_engines(), &[off0]);
        assert_eq!(nic.stats().time_to_failover.count(), 1);
        // Lost descriptors were re-issued and completed via the
        // replica: both offloads did real work.
        assert!(nic.stats().reissued > 0, "{:?}", nic.stats());
        assert!(nic.tile(off1).unwrap().stats().processed > 0);
        assert!(nic.tile(off0).unwrap().stats().processed > 0);
        assert_eq!(nic.stats().failed, 0, "replica recovered everything");
        assert!(
            nic.stats().recovery.count() > 0,
            "recovery latency measured"
        );
        // Copy-level conservation closes despite the crash.
        let c = nic.conservation();
        assert!(c.holds(), "{c}");
        assert!(c.flushed > 0, "DOWN-flush destroyed stranded copies:\n{c}");
        // Every descriptor reached the wire exactly once.
        assert_eq!(nic.stats().tx_wire + nic.stats().host_fallback, 40);

        // Fault-plane metrics are present (and only because the fault
        // plane is engaged).
        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m);
        assert_eq!(m.counter("nic.reissued"), Some(nic.stats().reissued));
        assert_eq!(m.counter("nic.downed_engines"), Some(1));
        assert!(m.histogram("nic.time_to_failover").is_some());
    }

    #[test]
    fn crash_without_replica_degrades_to_host_fallback() {
        // Same scenario but the replica is a *different* offload type:
        // failover cannot re-route, so traffic falls back to the host.
        let (mut nic, eth, off0, off1) = {
            let mut b = PanicNic::builder(NicConfig {
                topology: Topology::mesh(3, 3),
                width_bits: 64,
                router: RouterConfig::default(),
                pipeline: PipelineConfig {
                    parallel: 1,
                    depth: 3,
                    freq: sim_core::time::Freq::mhz(500),
                },
                pcie_flush_interval: 0,
            });
            let eth = b.engine(
                Box::new(engines::mac::MacEngine::new(
                    "eth0",
                    sim_core::time::Bandwidth::gbps(100),
                    sim_core::time::Freq::mhz(500),
                )),
                TileConfig::default(),
            );
            let off0 = b.engine(
                Box::new(NullOffload::new("crc", EngineClass::Asic, Cycles(2))),
                TileConfig::default(),
            );
            let off1 = b.engine(
                Box::new(NullOffload::new("aes", EngineClass::Asic, Cycles(2))),
                TileConfig::default(),
            );
            let _ = b.rmt_portal();
            b.program(
                ProgramBuilder::new("single", ParseGraph::standard(6379))
                    .stage(Table::new(
                        "route",
                        MatchKind::Exact(vec![packet::phv::Field::EthType]),
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
            // PV401 warns (no replica) but warnings don't block build.
            (b.build(), eth, off0, off1)
        };
        nic.enable_faults(faults::FaultPlan::parse("crash:1@100").unwrap());
        feed_and_drain(&mut nic, eth, 30, 25);

        assert_eq!(nic.downed_engines(), &[off0]);
        assert!(nic.stats().host_fallback > 0, "{:?}", nic.stats());
        assert_eq!(
            nic.tile(off1).unwrap().stats().processed,
            0,
            "different offload type must not be used as a replica"
        );
        let c = nic.conservation();
        assert!(c.holds(), "{c}");
        assert_eq!(nic.stats().tx_wire + nic.stats().host_fallback, 30);
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        let run = || {
            let (mut nic, eth, _, _) = replicated_nic(chaos_watchdog());
            let plan = faults::FaultPlan::generate(
                0xC0FFEE,
                &faults::FaultUniverse::new(vec![EngineId(1), EngineId(2)], Cycle(600)),
                6,
            );
            nic.enable_faults(plan);
            let mut f = FrameFactory::for_nic_port(0);
            let mut now = Cycle(0);
            let mut log = Vec::new();
            for i in 0..40u64 {
                nic.rx_frame(
                    eth,
                    f.min_frame(i as u16, 80),
                    TenantId(1),
                    Priority::Normal,
                    now,
                );
                for _ in 0..25 {
                    nic.tick(now);
                    now = now.next();
                }
            }
            for _ in 0..30_000u64 {
                nic.tick(now);
                now = now.next();
                for m in nic.take_wire_tx() {
                    log.push((now.0, m.id.0));
                }
                if nic.is_quiescent() && nic.faults_settled() {
                    break;
                }
            }
            let c = nic.conservation();
            assert!(c.holds(), "{c}");
            (log, format!("{c}"))
        };
        assert_eq!(run(), run(), "same fault seed, same run");
    }

    #[test]
    fn stall_fault_recovers_without_failover() {
        // A transient stall shorter than the engine-health timeout:
        // the watchdog may re-issue, but the engine must NOT be
        // isolated (64-cycle timeout, 48-cycle stall).
        let (mut nic, eth, off0, _) = replicated_nic(chaos_watchdog());
        nic.enable_faults(faults::FaultPlan::parse("stall:1@100+48").unwrap());
        feed_and_drain(&mut nic, eth, 30, 25);
        assert!(nic.downed_engines().is_empty(), "transient stall, no DOWN");
        assert!(!nic.tile(off0).unwrap().is_down());
        let c = nic.conservation();
        assert!(c.holds(), "{c}");
        assert_eq!(nic.stats().tx_wire, 30, "everything still delivered");
    }

    #[test]
    fn explicit_placement_is_respected() {
        let mut b = PanicNic::builder(NicConfig::small());
        let e = b.engine_at(
            Coord::new(5, 5),
            Box::new(NullOffload::new("x", EngineClass::Asic, Cycles(1))),
            TileConfig::default(),
        );
        let _p = b.rmt_portal_at(Coord::new(0, 0));
        b.program(
            ProgramBuilder::new("p", ParseGraph::standard(6379))
                .stage(Table::new(
                    "t",
                    MatchKind::Exact(vec![packet::phv::Field::EthType]),
                    Action::noop(),
                ))
                .build(),
        );
        let nic = b.build();
        assert_eq!(nic.network().coord_of(e), Coord::new(5, 5));
    }

    #[test]
    fn unrouted_pipeline_output_is_counted() {
        // Program with a noop action: no chain -> unrouted.
        let mut b = PanicNic::builder(NicConfig {
            topology: Topology::mesh(2, 2),
            width_bits: 64,
            router: RouterConfig::default(),
            pipeline: PipelineConfig {
                parallel: 1,
                depth: 3,
                freq: sim_core::time::Freq::mhz(500),
            },
            pcie_flush_interval: 0,
        });
        let eth = b.engine(
            Box::new(NullOffload::new(
                "eth",
                EngineClass::EthernetPort,
                Cycles(1),
            )),
            TileConfig::default(),
        );
        let _ = b.rmt_portal();
        b.program(
            ProgramBuilder::new("noop", ParseGraph::standard(6379))
                .stage(Table::new(
                    "t",
                    MatchKind::Exact(vec![packet::phv::Field::EthType]),
                    Action::noop(),
                ))
                .build(),
        );
        let mut nic = b.build();
        let mut f = FrameFactory::for_nic_port(0);
        let mut now = Cycle(0);
        nic.rx_frame(eth, f.min_frame(0, 80), TenantId(0), Priority::Normal, now);
        for _ in 0..200 {
            nic.tick(now);
            now = now.next();
        }
        assert_eq!(nic.stats().unrouted, 1);
    }

    // ---- tenancy plane ---------------------------------------------

    /// Two-tenant config over the tiny NIC: "alpha" (weight 3) and
    /// "beta" (weight 1), both credit-bounded.
    fn two_tenant_config() -> tenancy::TenancyConfig {
        tenancy::TenancyConfig::new(vec![
            tenancy::VNicSpec::new(TenantId(1), "alpha", 3).credit_quota(8),
            tenancy::VNicSpec::new(TenantId(2), "beta", 1).credit_quota(8),
        ])
    }

    #[test]
    fn tenanted_frames_flow_and_conservation_closes() {
        let (mut b, eth, _, _) = tiny_builder();
        b.tenancy(two_tenant_config());
        let mut nic = b.build();
        let mut f = FrameFactory::for_nic_port(0);
        let mut now = Cycle(0);
        for i in 0..10u16 {
            let t = TenantId(1 + u16::from(i.is_multiple_of(2)));
            nic.rx_frame(eth, f.min_frame(i, 80), t, Priority::Normal, now);
        }
        let mut tx = 0;
        for _ in 0..20_000 {
            nic.tick(now);
            now = now.next();
            tx += nic.take_wire_tx().len();
            if tx == 10 && nic.is_quiescent() {
                break;
            }
        }
        assert_eq!(tx, 10, "all tenanted frames transmitted");
        assert!(nic.is_quiescent());
        for t in [TenantId(1), TenantId(2)] {
            let c = nic.tenant_conservation(t).expect("configured tenant");
            assert!(c.holds(), "tenant {t:?} conservation violated: {c}");
            assert_eq!(c.tx_wire, 5);
            assert_eq!(c.pending, 0);
            let lat = nic.tenancy().unwrap().latency(t).unwrap();
            assert_eq!(lat.count(), 5);
        }
        // Credits fully returned.
        assert_eq!(nic.tenancy().unwrap().shared_in_use(), 0);
    }

    #[test]
    fn unknown_tenant_bypasses_tenancy_plane() {
        let (mut b, eth, _, _) = tiny_builder();
        b.tenancy(two_tenant_config());
        let mut nic = b.build();
        let mut f = FrameFactory::for_nic_port(0);
        // TenantId(9) has no vNIC: it takes the direct path.
        nic.rx_frame(
            eth,
            f.min_frame(1, 80),
            TenantId(9),
            Priority::Normal,
            Cycle(0),
        );
        assert_eq!(nic.tenancy().unwrap().pending_total(), 0);
        let mut now = Cycle(0);
        let mut tx = 0;
        for _ in 0..500 {
            nic.tick(now);
            now = now.next();
            tx += nic.take_wire_tx().len();
        }
        assert_eq!(tx, 1);
        assert!(nic.tenant_conservation(TenantId(9)).is_none());
    }

    #[test]
    fn tenancy_ff_matches_stepped_run() {
        // Rate-limited tenant (one release per 16 cycles) over a
        // gap-dominated run: fast-forward must replay token refills and
        // stall counts exactly, producing byte-identical metrics.
        let config = || {
            tenancy::TenancyConfig::new(vec![tenancy::VNicSpec::new(TenantId(1), "slow", 1)
                .rate(tenancy::RateSpec::one_per(16))
                .credit_quota(8)])
        };
        let run = |ff: bool| {
            let (mut b, eth, _, _) = tiny_builder();
            b.tenancy(config());
            let mut nic = b.build();
            let mut f = FrameFactory::for_nic_port(0);
            let mut now = Cycle(0);
            for i in 0..6u16 {
                nic.rx_frame(eth, f.min_frame(i, 80), TenantId(1), Priority::Normal, now);
            }
            if ff {
                let (n, _) = nic.run_ff(now, 3000);
                now = n;
            } else {
                now = nic.run(now, 3000);
            }
            assert_eq!(now, Cycle(3000));
            assert!(nic.is_quiescent(), "drained");
            let mut m = MetricsRegistry::new();
            nic.export_metrics(&mut m);
            (m.to_json(), nic.take_wire_tx().len())
        };
        let (m_s, tx_s) = run(false);
        let (m_f, tx_f) = run(true);
        assert_eq!(tx_s, tx_f);
        assert_eq!(m_s, m_f, "tenanted ff metrics must be byte-identical");
    }

    #[test]
    fn untenanted_nic_has_no_tenancy_artifacts() {
        let (mut nic, eth, _, _) = tiny_nic();
        assert!(nic.tenancy().is_none());
        let mut f = FrameFactory::for_nic_port(0);
        nic.rx_frame(
            eth,
            f.min_frame(1, 80),
            TenantId(1),
            Priority::Normal,
            Cycle(0),
        );
        nic.run(Cycle(0), 500);
        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m);
        assert!(
            !m.to_json().contains("tenancy."),
            "untenanted metrics must not mention tenancy"
        );
        assert!(nic.tenant_conservation(TenantId(1)).is_none());
    }
}
