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
//! 3. advance every occupied tile; route its emissions (next hop,
//!    pipeline fallback, or NIC egress);
//! 4. advance the mesh one cycle.
//!
//! # Layout
//!
//! A *datapath* plus optional *planes*. This file is the shell — the
//! [`PanicNic`] state, its statistics, tile access, and the clock
//! composition every plane contributes a term to; each plane's hooks
//! are an `impl PanicNic` block in a file of its own (the crate root
//! lists which file answers which question).

use std::collections::VecDeque;
use std::fmt;

use engines::tile::{Emit, EngineTile};
use noc::network::MeshNetwork;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineId;
use packet::message::{Message, Priority};
use rmt::pipeline::{PipelineConfig, RmtPipeline};
use sim_core::bits::set_bits;
use sim_core::clock::{drive, Advance, Driven};
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use tenancy::TenancyRuntime;
use trace::{Tracer, TrackId};

mod builder;
mod ctrl;
mod datapath;
mod fabric;
mod faultplane;
mod metrics;
mod tenants;

pub use builder::NicBuilder;
pub use faultplane::Conservation;
use faultplane::FaultRuntime;

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

impl TileSlot {
    /// The engine wrapper, unless this slot is a portal.
    fn as_engine(&self) -> Option<&EngineTile> {
        match self {
            TileSlot::Engine(t) => Some(t),
            TileSlot::RmtPortal => None,
        }
    }

    /// Mutable [`TileSlot::as_engine`].
    fn as_engine_mut(&mut self) -> Option<&mut EngineTile> {
        match self {
            TileSlot::Engine(t) => Some(t),
            TileSlot::RmtPortal => None,
        }
    }
}

/// Per-layer cycle attribution (`perf.layer.*` metrics): for each
/// simulation layer, the number of cycles in which it *held work*.
/// The NoC's share lives in [`noc::MeshNetwork::active_cycles`]; these
/// cover the layers the NIC drives directly.
///
/// A layer is charged whether or not it makes progress in a given
/// cycle, so the charge for a quiescent-window cycle is always zero —
/// which is what keeps the counters byte-identical across stepped and
/// fast-forwarded runs: ticked idle cycles charge nothing, and
/// skipped spans are replayed by [`PanicNic::skip_idle`]
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
#[derive(Debug, Default)]
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
    /// End-to-end latency (injection → wire/host egress), indexed by
    /// [`Priority`] in declaration order.
    pub latency: [Histogram; 3],
    /// Per-layer cycle attribution (see [`LayerCycles`]).
    pub layer: LayerCycles,
}

impl NicStats {
    /// Latency histogram for a priority class.
    #[must_use]
    pub fn latency_of(&self, p: Priority) -> &Histogram {
        &self.latency[p as usize]
    }
}

/// The PANIC NIC.
pub struct PanicNic {
    config: NicConfig,
    network: MeshNetwork,
    /// Tile slots, parallel to `tile_ids` (id-sorted, fixed at build).
    tiles: Vec<TileSlot>,
    /// Slot index -> NoC tile index, parallel to `tile_ids`: where the
    /// ejection pass polls for the slot it is visiting.
    slot_noc_tile: Vec<u32>,
    /// NoC tile index -> slot index (`u32::MAX` where nothing is
    /// placed): turns the network's ejection-pending bits, which are in
    /// mesh order, into the id-sorted slot order the traces depend on.
    noc_tile_slot: Vec<u32>,
    /// Slot-indexed occupancy mask (bit `i % 64` of word `i / 64`):
    /// set wherever a tile can hold work — an accepted message, or
    /// anything done through [`PanicNic::tile_mut`], the fault plane
    /// included — and cleared by the tile pass once the tile holds
    /// none and no stall still owes [`PanicNic::next_activity`] a wake.
    /// Every per-tick and per-wake walk over tiles visits set bits
    /// only, in slot order; a tile whose bit is clear is workless, is
    /// not ticked, and has its progress clock replayed
    /// ([`EngineTile::catch_up_idle`]) when work next lands on it.
    occupied: Vec<u64>,
    /// Implicit exits inside engine tiles (scheduler drops + watchdog
    /// flushes): per slot as of the tile's last reckoning, and the sum
    /// over slots. A tile's counters move only while its occupancy bit
    /// is set, so a slot is reckoned when the tile pass clears its bit
    /// and, while the bit stays set, whenever the tenancy plane asks
    /// ([`PanicNic::implicit_exit_total`]) — which therefore reads the
    /// occupied tiles, not all of them.
    implicit_seen: Vec<u64>,
    implicit_in_tiles: u64,
    /// The ejection pass's pending mask in slot order, all zero
    /// between ticks (reused so the translation allocates nothing).
    eject_scratch: Vec<u64>,
    /// Slots whose offload is a PCIe engine (fixed at build): the only
    /// tiles the coalescing flush timer concerns.
    pcie_slots: Vec<u32>,
    /// The flush timer's next deadline: no cycle before it is a flush
    /// cycle, so the tick compares instead of dividing. `u64::MAX`
    /// when the timer is off or there is nothing to flush.
    next_flush: u64,
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
    remote_egress: VecDeque<Message>,
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
        for tile in self.tiles.iter_mut().filter_map(TileSlot::as_engine_mut) {
            tile.attach_tracer(tracer);
        }
        if let Some(tn) = self.tenancy.as_mut() {
            tn.attach_tracer(tracer);
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
        self.tiles[self.tile_index(id)?].as_engine()
    }

    /// Mutable tile access (scenario setup, fault injection). Marks
    /// the tile occupied, since the caller may hand it work or a stall:
    /// the next tick visits it and clears the mark again if it holds
    /// neither. Work accepted this way skips the idle-clock replay a
    /// message arriving over the mesh gets — inject through
    /// [`PanicNic::inject_from`] where engine-health timing matters.
    pub fn tile_mut(&mut self, id: EngineId) -> Option<&mut EngineTile> {
        let i = self.tile_index(id)?;
        let tile = self.tiles[i].as_engine_mut()?;
        self.occupied[i / 64] |= 1 << (i % 64);
        Some(tile)
    }

    /// Every engine tile with its id, in id order (portals skipped).
    /// For build-time, export and conservation walks; anything that
    /// runs per tick or per wake uses [`PanicNic::occupied_tiles`].
    fn engine_tiles(&self) -> impl Iterator<Item = (EngineId, &EngineTile)> {
        self.tile_ids
            .iter()
            .zip(&self.tiles)
            .filter_map(|(&id, slot)| Some((id, slot.as_engine()?)))
    }

    /// The tiles whose occupancy bit is set, in slot (= id) order:
    /// every tile that holds work or a pending stall, and possibly a
    /// few freshly marked ones that hold neither.
    fn occupied_tiles(&self) -> impl Iterator<Item = &EngineTile> {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(word).map(move |bit| w * 64 + bit))
            .filter_map(|i| self.tiles[i].as_engine())
    }

    /// True while the pipeline has backlog or a message inside a stage.
    fn pipeline_holds_work(&self) -> bool {
        self.pipeline.backlog() > 0 || self.pipeline.occupancy() > 0
    }

    /// Drains frames transmitted on the wire since the last call.
    pub fn take_wire_tx(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.wire_tx)
    }

    /// Drains host deliveries since the last call.
    pub fn take_host_rx(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.host_rx)
    }

    /// Drains frames transmitted on the wire since the last call into
    /// `out`, keeping the internal buffer's allocation (the zero-alloc
    /// alternative to [`PanicNic::take_wire_tx`]).
    pub fn drain_wire_tx_into(&mut self, out: &mut Vec<Message>) {
        out.append(&mut self.wire_tx);
    }

    /// Drains host deliveries since the last call into `out`, keeping
    /// the internal buffer's allocation (the twin of
    /// [`PanicNic::drain_wire_tx_into`] for [`PanicNic::take_host_rx`]).
    pub fn drain_host_rx_into(&mut self, out: &mut Vec<Message>) {
        out.append(&mut self.host_rx);
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

    /// Fast-forward hint: the earliest future cycle at which any NIC
    /// component could do observable work, or `None` when nothing will
    /// happen without outside input (no in-flight message that can
    /// move, no pending fault event, no armed timer).
    ///
    /// The hint is the minimum over:
    /// * the heavyweight pipeline (backlog → next cycle; in-flight
    ///   only → its earliest completion);
    /// * every occupied engine tile (queue/pending → next cycle; in
    ///   service → completion; stalled → wake; DOWN/crashed → never) —
    ///   a tile whose occupancy bit is clear has nothing to wake for;
    /// * the fault plane (next planned event; next watchdog check
    ///   while anything is tracked, striking, or holding work);
    /// * the PCIe flush timer (next multiple of the flush interval
    ///   while any coalescer holds pending events);
    /// * the tenancy plane;
    /// * the mesh: the poll of the first tail while every message in
    ///   it is in clear transit toward a tile the ejection pass polls
    ///   every cycle, else the next cycle ([`MeshNetwork::next_activity`]).
    ///
    /// No term is earlier than `now + 1`, so the terms are consulted in
    /// the order above only until one of them says exactly that; the
    /// mesh, the one whose answer costs a walk, comes last, unless one
    /// look tells it must tick ([`MeshNetwork::must_tick`]).
    #[must_use]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let soonest = Some(now.next());
        if self.network.must_tick() {
            return soonest;
        }
        let mut hint = None;
        let mut settled = |term: Option<Cycle>| {
            hint = Cycle::earliest(hint, term);
            hint == soonest
        };
        let polled = polled_tiles(&self.tiles, &self.noc_tile_slot, self.pipeline_gated);
        let _ = settled(self.pipeline.next_activity(now))
            || self.occupied_tiles().any(|t| settled(t.next_activity(now)))
            || settled(self.fault_plane_next_activity(now))
            || settled(self.pcie_flush_next_activity(now))
            || settled(self.tenancy.as_ref().and_then(|t| t.next_activity(now)))
            || settled(self.network.next_activity(now, polled));
        hint
    }

    /// Advances the NIC over the skipped cycles `[from, to)`: the mesh
    /// glides its messages through them ([`MeshNetwork::glide`]) — the
    /// one plane whose skipped steps move functional state — and every
    /// other plane replays its per-cycle bookkeeping (pipeline idle-slot
    /// accounting and traced backlog samples, tile busy/progress clocks,
    /// tenancy accrual, per-layer cycle attribution).
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        let polled = polled_tiles(&self.tiles, &self.noc_tile_slot, self.pipeline_gated);
        self.network.glide(from, to, polled);
        self.pipeline.skip_idle(from, to);
        // Only a tile that holds work has ticks to replay — the stepped
        // tile pass does not tick a workless one either; its progress
        // clock is replayed when work next lands on it.
        let (mut any_engine, mut any_sched) = (false, false);
        for w in 0..self.occupied.len() {
            for bit in set_bits(self.occupied[w]) {
                let tile = self.tiles[w * 64 + bit].as_engine_mut();
                if let Some(t) = tile.filter(|t| t.has_work()) {
                    t.skip_idle(from, to);
                    any_engine = true;
                    any_sched |= t.queue_depth() > 0;
                }
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
        self.stats.layer.rmt += span * u64::from(self.pipeline_holds_work());
        self.stats.layer.tenancy += span * u64::from(self.tenancy_holds_work());
        self.stats.layer.engines += span * u64::from(any_engine);
        self.stats.layer.sched += span * u64::from(any_sched);
    }

    /// True when nothing is in flight anywhere (mesh, pipeline, tile
    /// queues/service, or the fabric-egress buffer).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        debug_assert!(
            self.tiles.iter().enumerate().all(|(i, slot)| {
                let occupied = self.occupied[i / 64] & (1 << (i % 64)) != 0;
                occupied || !slot.as_engine().is_some_and(EngineTile::has_work)
            }),
            "occupancy mask out of sync: a tile holds work with its bit clear"
        );
        self.remote_egress.is_empty()
            && self.network.is_quiescent()
            && !self.pipeline_holds_work()
            && self.occupied_tiles().all(|t| !t.has_work())
            && !self.tenancy_holds_work()
    }
}

/// Whether the ejection pass polls mesh tile `tile` on every cycle in
/// which nothing else happens: an engine tile ready to take a message,
/// or a portal while the pipeline gate is open (see [`PanicNic::tick`]).
fn polled_tiles<'a>(
    tiles: &'a [TileSlot],
    noc_tile_slot: &'a [u32],
    pipeline_gated: bool,
) -> impl Fn(usize) -> bool + 'a {
    move |tile| match noc_tile_slot[tile] {
        u32::MAX => false,
        slot => match &tiles[slot as usize] {
            TileSlot::Engine(t) => t.rx_ready(),
            TileSlot::RmtPortal => !pipeline_gated,
        },
    }
}

/// The NIC alone: no workload, one wake source, never done.
impl Driven for PanicNic {
    fn step(&mut self, now: Cycle) {
        self.tick(now);
    }
    fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle)) {
        if let Some(t) = self.next_activity(now) {
            post(t);
        }
    }
    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        PanicNic::skip_idle(self, from, to);
    }
}

#[cfg(test)]
mod tests;
