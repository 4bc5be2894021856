//! Construction: [`NicBuilder`] places engines and portals, loads the
//! program, arms the optional planes, and lints it all.

use std::collections::VecDeque;
use std::fmt;

use engines::engine::Offload;
use engines::pcie::PcieEngine;
use engines::tile::{EngineTile, TileConfig};
use faults::{FaultPlan, Watchdog, WatchdogConfig};
use noc::network::{MeshNetwork, NetworkConfig};
use noc::topology::{Coord, Placement};
use packet::chain::EngineId;
use rmt::pipeline::RmtPipeline;
use rmt::program::RmtProgram;
use tenancy::{TenancyConfig, TenancyRuntime};
use trace::{Tracer, TrackId};

use super::faultplane::FaultRuntime;
use super::{NicConfig, NicStats, PanicNic, TileSlot};

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

    /// Allocates the next engine id for a slot at `coord` (`None` =
    /// the next free tile, row-major).
    fn slot(&mut self, coord: Option<Coord>, spec: SlotSpec) -> EngineId {
        let id = EngineId(self.next_id);
        self.next_id += 1;
        self.slots.push((id, coord, spec));
        id
    }

    /// Adds an engine at the next free tile.
    pub fn engine(&mut self, offload: Box<dyn Offload>, tile: TileConfig) -> EngineId {
        self.slot(None, SlotSpec::Engine(offload, tile))
    }

    /// Adds an engine at a specific tile.
    pub fn engine_at(
        &mut self,
        coord: Coord,
        offload: Box<dyn Offload>,
        tile: TileConfig,
    ) -> EngineId {
        self.slot(Some(coord), SlotSpec::Engine(offload, tile))
    }

    /// Adds an RMT portal tile (an entrance/exit of the heavyweight
    /// pipeline). Add one per parallel pipeline for a faithful layout.
    pub fn rmt_portal(&mut self) -> EngineId {
        self.slot(None, SlotSpec::Portal)
    }

    /// Adds an RMT portal at a specific tile.
    pub fn rmt_portal_at(&mut self, coord: Coord) -> EngineId {
        self.slot(Some(coord), SlotSpec::Portal)
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
    /// limiting ahead of the shared datapath. Frames whose tenant id
    /// matches a configured vNIC are parked in a
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
                        line_rate = line_rate.max(Some(mac.line_rate()));
                    }
                    let mut e = panic_verify::EngineSpec::new(*id, offload.name(), offload.class());
                    e.service_cycles = offload.nominal_service_cycles();
                    e.queue_capacity = cfg.queue_capacity;
                    e.admission = cfg.admission;
                    e
                }
                SlotSpec::Portal => {
                    panic_verify::EngineSpec::new(*id, "rmt-portal", EngineClass::Rmt)
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
    /// routers (PV102), or an over-capacity program (PV203), among
    /// others. The panic message carries the rendered diagnostics.
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

        // Explicit placements keep their tile; the rest fill the free
        // tiles row-major.
        let taken: Vec<Coord> = self.slots.iter().filter_map(|s| s.1).collect();
        let mut free = topology.coords().filter(|c| !taken.contains(c));
        let mut placement = Placement::new();
        for (id, coord, _) in &self.slots {
            let c = coord.unwrap_or_else(|| free.next().expect("checked tile count"));
            placement.place(*id, c);
        }

        let network = MeshNetwork::new(
            NetworkConfig {
                topology,
                width_bits: self.config.width_bits,
                router: self.config.router,
            },
            placement,
        );

        // Dense id-sorted storage (ids are allocated in slot order):
        // the tick loop indexes straight into the `Vec` (no tree walk
        // per tile per cycle), and by-id access binary-searches
        // `tile_ids` — the per-message slow path.
        let mut tile_ids = Vec::new();
        let mut tiles = Vec::new();
        let mut portals = Vec::new();
        for (id, _, spec) in self.slots {
            tile_ids.push(id);
            tiles.push(match spec {
                SlotSpec::Engine(offload, cfg) => {
                    TileSlot::Engine(Box::new(EngineTile::new(id, offload, cfg)))
                }
                SlotSpec::Portal => {
                    portals.push(id);
                    TileSlot::RmtPortal
                }
            });
        }
        assert!(!portals.is_empty(), "NIC needs at least one RMT portal");
        let slot_noc_tile: Vec<u32> = tile_ids
            .iter()
            .map(|id| topology.index(network.coord_of(*id)) as u32)
            .collect();
        let mut noc_tile_slot = vec![u32::MAX; topology.nodes()];
        for (slot, &tile) in slot_noc_tile.iter().enumerate() {
            noc_tile_slot[tile as usize] = slot as u32;
        }
        let slot_words = tiles.len().div_ceil(64);
        // With the timer off there is nothing for it to visit.
        let flush = self.config.pcie_flush_interval;
        let is_pcie = |slot: &TileSlot| {
            let pcie = slot
                .as_engine()
                .and_then(EngineTile::offload_as::<PcieEngine>);
            flush > 0 && pcie.is_some()
        };
        let pcie_slots: Vec<u32> = (0..tiles.len() as u32)
            .filter(|&i| is_pcie(&tiles[i as usize]))
            .collect();
        PanicNic {
            pipeline: RmtPipeline::new(self.config.pipeline, program),
            config: self.config,
            network,
            implicit_seen: vec![0; tiles.len()],
            implicit_in_tiles: 0,
            tiles,
            slot_noc_tile,
            noc_tile_slot,
            occupied: vec![0; slot_words],
            eject_scratch: vec![0; slot_words],
            next_flush: if pcie_slots.is_empty() {
                u64::MAX
            } else {
                flush
            },
            pcie_slots,
            tile_ids,
            pipeline_scratch: Vec::new(),
            emit_scratch: Vec::new(),
            portals,
            pipeline_gated: false,
            rr_portal: 0,
            next_msg_id: 0,
            wire_tx: Vec::new(),
            host_rx: Vec::new(),
            remote_egress: VecDeque::new(),
            fabric_index: None,
            stats: NicStats::default(),
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
