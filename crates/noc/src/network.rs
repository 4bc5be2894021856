//! The assembled mesh network.
//!
//! [`MeshNetwork`] owns one [`Router`] per tile plus per-tile source
//! (injection) and ejection buffers, and exposes the interface engine
//! tiles use:
//!
//! * [`MeshNetwork::send`] — segment a message into flits and queue it
//!   at the source tile (the engine's TX interface);
//! * [`MeshNetwork::poll_ejected`] — drain one flit per cycle from the
//!   tile's ejection buffer, yielding a [`Message`] when its tail
//!   arrives (the engine's RX interface);
//! * [`MeshNetwork::tick`] — advance the whole network one cycle in
//!   two phases (routers plan, then transfers commit);
//! * [`MeshNetwork::next_activity`] and [`MeshNetwork::glide`] — the
//!   fast-forward pair: while every message is in clear transit, the
//!   cycle its first tail is polled, and the mesh advanced to any cycle
//!   before it in one step (`network/glide.rs`).
//!
//! A message in the mesh is stored once, in the network's in-flight
//! slab, from `send` until its tail is ejected. A source queue holds
//! each waiting message as one run (what is left of it, in flits);
//! router FIFOs and ejection buffers hold 8-byte [`FlitHandle`]s naming
//! its slot. Which routers hold a flit is an `active` tile bitmask, so a
//! tick touches only those.
//!
//! A *worm* — a message's flits strung along its XY path — mostly
//! *streams*: every router it crosses forwards its next flit each
//! cycle. [`MeshNetwork::tick`] moves such a worm in one step at its
//! two ends rather than a flit a hop, and plans only the routers with
//! something else to decide. Streaming and gliding are shortcuts with
//! no observable effect: `network/reference.rs` holds the flit-at-a-time
//! mesh they replaced and steps it in lock-step with both.
//!
//! The network is lossless end to end: the only place a message can
//! wait indefinitely is a source queue, which models the engine-side
//! buffering the paper assigns to engines that don't run at line rate
//! (§4.3).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use packet::{EngineId, Flit, FlitKind, Message, TenantId};
use sim_core::bits::set_bits;
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use trace::{MetricSink, Tracer, TrackId};

use crate::router::{FlitHandle, PortDir, RoutePlan, Router, RouterConfig, NO_PORT};
use crate::topology::{Coord, Placement, RouteLut, Topology};

/// Network configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Mesh shape.
    pub topology: Topology,
    /// Channel width in bits (Table 3 studies 64 and 128).
    pub width_bits: u64,
    /// Per-router buffer sizes.
    pub router: RouterConfig,
}

impl NetworkConfig {
    /// The paper's small reference configuration: 6×6 mesh, 64-bit
    /// channels.
    #[must_use]
    pub fn panic_6x6_64b() -> NetworkConfig {
        NetworkConfig {
            topology: Topology::mesh6x6(),
            width_bits: 64,
            router: RouterConfig::default(),
        }
    }
}

/// Aggregate traffic statistics.
#[derive(Debug)]
pub struct NetworkStats {
    /// Messages accepted by `send`.
    pub injected_messages: u64,
    /// Messages fully delivered (tail flit handed to the tile).
    pub delivered_messages: u64,
    /// Flits delivered to ejection buffers.
    pub delivered_flits: u64,
    /// Network latency (send → tail ejected), in cycles.
    pub latency: Histogram,
}

impl NetworkStats {
    fn new() -> NetworkStats {
        NetworkStats {
            injected_messages: 0,
            delivered_messages: 0,
            delivered_flits: 0,
            latency: Histogram::new(),
        }
    }
}

/// An active link-slowdown fault: output `port` at `tile` passes a
/// flit only on cycles where `cycle % period == 0`, until `until`.
#[derive(Debug)]
struct SlowLink {
    tile: usize,
    port: PortDir,
    until: Cycle,
    period: u64,
}

/// An active credit-hold fault: `taken` credits confiscated from
/// (`tile`, `port`), returned at `until`.
#[derive(Debug)]
struct CreditHold {
    tile: usize,
    port: PortDir,
    taken: usize,
    until: Cycle,
}

/// Fault-injection state, allocated only when a fault API is first
/// used — the fault-free path pays one `Option` check per tick.
#[derive(Debug, Default)]
struct NetFaults {
    /// Per-tile count of armed ejection drops (each destroys the next
    /// fully reassembled message at that tile and leaks its Local
    /// credit).
    drop_armed: HashMap<usize, u32>,
    /// Active link slowdowns.
    slow: Vec<SlowLink>,
    /// Active credit holds.
    holds: Vec<CreditHold>,
    /// Messages destroyed by ejection drops.
    lost_messages: u64,
    /// Local credits leaked by ejection drops (never returned).
    leaked_credits: u64,
    /// Losses attributed per tenant, for the tenancy plane's
    /// conservation identity. Cold path: only touched when a message
    /// is actually destroyed.
    lost_by_tenant: BTreeMap<TenantId, u64>,
}

/// `neighbor_idx` entry of a port with no link.
const NO_TILE: u16 = u16::MAX;

/// The port on which a neighbor receives a flit sent out of port `o`.
const OPPOSITE: [u8; PortDir::COUNT] = [1, 0, 3, 2, 4];

/// The Local port's index.
const LOCAL: usize = 4;

/// One in-flight message: stored once in the slab while its flits —
/// handles naming this slot — cross the mesh.
#[derive(Debug)]
struct InFlight {
    msg: Message,
    /// When `send` accepted it (for `noc.latency` / `noc.msg`).
    sent: Cycle,
}

// A slab entry is a `Message` plus one word; the slab is written once
// and read once per NoC leg: at most 128 bytes, the largest move LLVM
// does inline on baseline x86-64 rather than through a `memcpy` call
// (see the pin in `packet::message`).
const _: () = assert!(std::mem::size_of::<InFlight>() <= 128);

/// Where a message is among the routers, per slab slot.
///
/// A worm's flits sit in order along its XY path, which visits a tile at
/// most once, so a tile alone names a hop, and each FIFO on the path
/// holds one *run* of them (consecutive flits). `tail_*` is the input
/// FIFO holding its tail-most run while any flit is in a router; `at` is
/// the worm's index in `MeshNetwork::waiting` or `MeshNetwork::segs`,
/// as `state` says.
#[derive(Debug, Clone, Copy)]
struct Worm {
    at: u32,
    tail_tile: u16,
    tail_port: u8,
    state: WormState,
}

/// Which list, if any, holds a worm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WormState {
    /// No flit in a router: in a source queue, an ejection buffer or
    /// gone.
    Out,
    /// In `waiting`: no hop streams, and the next walk may find one.
    Waiting,
    /// In `waiting`, and its last walk found its tail-most run behind
    /// another message, behind its own waiting head, or short of a
    /// credit toward the next router: no walk finds a segment before
    /// that head wins an output, a FIFO it is in pops, or the run
    /// moves.
    Blocked,
    /// In `segs`: its segment streams.
    Streaming,
}

const _: () = assert!(std::mem::size_of::<Worm>() == 8);

impl Worm {
    const OUT: Worm = Worm {
        at: u32::MAX,
        tail_tile: NO_TILE,
        tail_port: 0,
        state: WormState::Out,
    };
}

/// The hops a worm streams through: `hops` consecutive hops from input
/// `first_in` of tile `first` (leaving through `first_out`) to input
/// `last_in` of tile `last` (leaving through `last_out`).
///
/// A segment is kept from cycle to cycle and changes only at its two
/// ends (see [`MeshNetwork::tick`]).
#[derive(Debug, Clone, Copy)]
struct Seg {
    slot: u32,
    hops: u16,
    first: u16,
    last: u16,
    first_in: u8,
    first_out: u8,
    last_in: u8,
    last_out: u8,
}

const _: () = assert!(std::mem::size_of::<Seg>() == 16);

/// What is left of one message in a source queue: `left` flits, the
/// next of them its head while `fresh`. The queue holds whole messages,
/// so the last flit left is the message's tail.
#[derive(Debug, Clone, Copy)]
struct SourceRun {
    slot: u32,
    left: u32,
    dest: Coord,
    fresh: bool,
}

/// A flit's kind from whether it opens and whether it closes its worm.
/// A table, not a match: kinds vary flit to flit, so a branch on them
/// mispredicts.
#[inline]
fn kind(head: bool, tail: bool) -> FlitKind {
    const KIND: [FlitKind; 4] = [
        FlitKind::Body,
        FlitKind::Tail,
        FlitKind::Head,
        FlitKind::HeadTail,
    ];
    KIND[usize::from(head) << 1 | usize::from(tail)]
}

impl SourceRun {
    /// Takes the next flit.
    #[inline]
    fn pop(&mut self) -> FlitHandle {
        let kind = kind(self.fresh, self.left == 1);
        self.left -= 1;
        self.fresh = false;
        FlitHandle {
            slot: self.slot,
            dest: self.dest,
            kind,
        }
    }
}

/// A tile's source (injection) queue: whole messages, and the flits
/// they hold. The message injecting now sits inline, so injection and a
/// source-fed stream step reach it without a queue lookup.
#[derive(Debug)]
struct Source {
    /// The front message; meaningless while `flits` is 0.
    front: SourceRun,
    /// The messages behind it.
    behind: VecDeque<SourceRun>,
    flits: usize,
}

impl Source {
    fn new() -> Source {
        Source {
            front: SourceRun {
                slot: u32::MAX,
                left: 0,
                dest: Coord::new(0, 0),
                fresh: false,
            },
            behind: VecDeque::new(),
            flits: 0,
        }
    }

    /// Queues a whole message.
    fn push(&mut self, run: SourceRun) {
        if self.flits == 0 {
            self.front = run;
        } else {
            self.behind.push_back(run);
        }
        self.flits += run.left as usize;
    }

    /// Takes the front message's next flit (the queue must not be
    /// empty), and says whether the message behind it moved up front.
    #[inline]
    fn pop(&mut self) -> (FlitHandle, bool) {
        debug_assert!(self.flits > 0, "pop from an empty source queue");
        let flit = self.front.pop();
        self.flits -= 1;
        if self.front.left == 0 {
            if let Some(next) = self.behind.pop_front() {
                self.front = next;
                return (flit, true);
            }
        }
        (flit, false)
    }

    /// True when the front message is `slot`'s.
    #[inline]
    fn feeds(&self, slot: u32) -> bool {
        self.flits > 0 && self.front.slot == slot
    }

    /// The queued messages, front first.
    #[cfg(test)]
    fn runs(&self) -> impl Iterator<Item = &SourceRun> {
        (self.flits > 0)
            .then_some(&self.front)
            .into_iter()
            .chain(self.behind.iter())
    }
}

/// The mesh network of routers.
#[derive(Debug)]
pub struct MeshNetwork {
    config: NetworkConfig,
    placement: Placement,
    /// Dense engine→coord/tile tables snapshotted from `placement` —
    /// `send` and `poll_ejected` never touch the hash maps.
    lut: RouteLut,
    /// `neighbor_idx[tile][port]` — downstream tile index per output
    /// port ([`NO_TILE`] where no link exists; own tile for Local).
    neighbor_idx: Vec<[u16; PortDir::COUNT]>,
    routers: Vec<Router>,
    /// Per-tile source (injection) queues. Unbounded: they model the
    /// sending engine's own buffering; occupancy is observable so
    /// experiments can detect source-queue growth (= saturation).
    source: Vec<Source>,
    /// Messages queued behind another in a source queue, all tiles
    /// together: while any is, two messages share a Local input, and
    /// nothing glides.
    queued_behind: usize,
    /// Per tile, the messages between `send` and the poll of their tail
    /// bound for it; and how many tiles more than one is bound for.
    /// While any is, two messages share an ejection buffer, and nothing
    /// glides.
    bound: Vec<u32>,
    shared_dests: usize,
    /// Per-tile ejection buffers, bounded in practice by Local credits.
    ejection: Vec<VecDeque<FlitHandle>>,
    /// The in-flight slab: every message between `send` and the
    /// ejection of its tail, indexed by [`FlitHandle::slot`]. Each copy
    /// of a message has its own slot, so a re-issued duplicate racing
    /// its original keeps its own send stamp.
    slab: Vec<Option<InFlight>>,
    /// Vacant slab slots, reused LIFO; sized with the slab so a
    /// steady-state eject → send cycle never allocates.
    free_slots: Vec<u32>,
    /// Per-slot worm records, parallel to `slab`.
    worms: Vec<Worm>,
    /// Slots of the worms in the routers without a segment; sized with
    /// the slab.
    waiting: Vec<u32>,
    /// The streaming worms' segments; sized with the slab.
    segs: Vec<Seg>,
    /// Per tile, the inputs in some segment — left out of the plans.
    streaming: Vec<u8>,
    /// Tiles whose injection this tick was left to the stream step of
    /// the segment starting at their Local input, same layout as
    /// `active`.
    deferred: Vec<u64>,
    /// Flit-hops moved by stream steps rather than by router plans.
    streamed: u64,
    /// Flit-hops and cycles [`MeshNetwork::glide`] advanced without a
    /// tick.
    glided_hops: u64,
    glided_cycles: u64,
    /// The glide [`MeshNetwork::next_activity`] planned, for the
    /// [`MeshNetwork::glide`] that follows it.
    plan: RefCell<glide::Gliders>,
    stats: NetworkStats,
    /// Trace handle (disabled by default; see [`MeshNetwork::attach_tracer`]).
    tracer: Tracer,
    /// Per-tile trace tracks (`noc.router(x,y)`), parallel to `routers`.
    tracks: Vec<TrackId>,
    /// Fault-injection state; `None` (no cost, no metrics) until a
    /// `fault_*` method is called.
    faults: Option<Box<NetFaults>>,
    /// Per-router switch-allocation plans (phase 2 writes, phase 3
    /// executes); only the entries of this cycle's planned tiles are
    /// meaningful.
    plans: Vec<RoutePlan>,
    /// Bitmask of tiles whose router holds at least one flit (one u64
    /// word per 64 tiles): set on every accept, cleared when a commit
    /// leaves the router empty. Idle routers are never visited.
    active: Vec<u64>,
    /// The tiles phase 2 planned — active tiles with an input in no
    /// segment — which are the tiles phase 3 commits (commits change
    /// `active` as flits move).
    planned: Vec<u64>,
    /// Bitmask of tiles whose source queue is non-empty, same layout
    /// as `active`, so injection visits only tiles with traffic.
    source_pending: Vec<u64>,
    /// Bitmask of tiles whose ejection buffer is non-empty, same
    /// layout as `source_pending`, so the NIC's ejection pass visits
    /// only tiles with a flit waiting.
    ejection_pending: Vec<u64>,
    /// Flits currently anywhere in the network (sources, router
    /// buffers, ejection buffers) — O(1) quiescence.
    resident_flits: u64,
    /// Ticks in which the network held at least one flit (`perf.layer.noc`).
    active_cycles: u64,
}

impl MeshNetwork {
    /// Builds the network. `placement` must place every engine that
    /// will ever be addressed; tiles without engines simply route
    /// through.
    #[must_use]
    pub fn new(config: NetworkConfig, placement: Placement) -> MeshNetwork {
        let routers = config
            .topology
            .coords()
            .map(|c| Router::new(c, config.topology, config.router))
            .collect();
        let n = config.topology.nodes();
        let words = n.div_ceil(64);
        let lut = RouteLut::build(&placement, config.topology);
        let neighbor_idx = config
            .topology
            .coords()
            .enumerate()
            .map(|(tile, c)| {
                // At most 255 × 255 tiles, so an index never collides
                // with `NO_TILE`.
                let mut row = [NO_TILE; PortDir::COUNT];
                for &p in &PortDir::ALL {
                    row[p.index()] = match p.direction() {
                        Some(d) => config
                            .topology
                            .neighbor(c, d)
                            .map_or(NO_TILE, |nc| config.topology.index(nc) as u16),
                        None => tile as u16,
                    };
                }
                row
            })
            .collect();
        // Ejection occupancy is bounded by the Local credit pool, so
        // the buffers can be sized once and never grow.
        let eject_cap = config.router.ejection_buffer_flits + 1;
        MeshNetwork {
            config,
            placement,
            lut,
            neighbor_idx,
            routers,
            source: (0..n).map(|_| Source::new()).collect(),
            queued_behind: 0,
            bound: vec![0; n],
            shared_dests: 0,
            ejection: (0..n).map(|_| VecDeque::with_capacity(eject_cap)).collect(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            worms: Vec::new(),
            waiting: Vec::new(),
            segs: Vec::new(),
            streaming: vec![0; n],
            deferred: vec![0u64; words],
            streamed: 0,
            glided_hops: 0,
            glided_cycles: 0,
            plan: RefCell::new(glide::Gliders::NONE),
            stats: NetworkStats::new(),
            tracer: Tracer::disabled(),
            tracks: Vec::new(),
            faults: None,
            plans: vec![RoutePlan::default(); n],
            active: vec![0u64; words],
            planned: vec![0u64; words],
            source_pending: vec![0u64; words],
            ejection_pending: vec![0u64; words],
            resident_flits: 0,
            active_cycles: 0,
        }
    }

    /// Attaches a tracer: every tile gets a `noc.router(x,y)` track
    /// carrying `noc.hop` instants (one per flit forwarded),
    /// `noc.credit_stall` instants (an output wanted to send but the
    /// downstream buffer was full), and `noc.msg` spans (send → tail
    /// ejected, on the destination tile). See `docs/TRACING.md`. A
    /// traced mesh plans every hop: no worm streams.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.tracks = self
            .config
            .topology
            .coords()
            .map(|c| self.tracer.track(&format!("noc.router{c}")))
            .collect();
    }

    /// Exports traffic statistics into `m` under `prefix` (usually
    /// `"noc"`): counters `<prefix>.injected_messages`,
    /// `<prefix>.delivered_messages`, `<prefix>.delivered_flits`,
    /// `<prefix>.flit_hops`, and the `<prefix>.latency` histogram
    /// (send → tail ejected, cycles).
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S, prefix: impl fmt::Display) {
        m.counter(
            format_args!("{prefix}.injected_messages"),
            self.stats.injected_messages,
        );
        m.counter(
            format_args!("{prefix}.delivered_messages"),
            self.stats.delivered_messages,
        );
        m.counter(
            format_args!("{prefix}.delivered_flits"),
            self.stats.delivered_flits,
        );
        m.counter(format_args!("{prefix}.flit_hops"), self.total_flit_hops());
        m.histogram(format_args!("{prefix}.latency"), &self.stats.latency);
        // Fault counters appear only when the fault plane was engaged,
        // so fault-free metrics output stays byte-identical.
        if let Some(faults) = &self.faults {
            m.counter(format_args!("{prefix}.lost_messages"), faults.lost_messages);
            m.counter(
                format_args!("{prefix}.leaked_credits"),
                faults.leaked_credits,
            );
        }
    }

    /// The network's configuration.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The engine placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Traffic statistics so far.
    #[must_use]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Lazily allocates the fault state.
    fn faults_mut(&mut self) -> &mut NetFaults {
        self.faults.get_or_insert_with(Box::default)
    }

    /// Fault injection: arms one ejection drop at `engine`'s tile. The
    /// next *fully reassembled* message ejected there is destroyed and
    /// its Local credit leaked (see [`MeshNetwork::poll_ejected`]).
    /// Drops act only at the ejection boundary so wormhole invariants
    /// (no partial message abandoned mid-mesh) are preserved; each
    /// drop permanently shrinks the tile's ejection-credit pool by
    /// one, so callers must arm fewer drops per tile than
    /// `RouterConfig::ejection_buffer_flits`.
    pub fn fault_drop_next_ejection(&mut self, engine: EngineId) {
        let tile = self.tile_of(engine);
        *self.faults_mut().drop_armed.entry(tile).or_insert(0) += 1;
    }

    /// Fault injection: from now until `until`, output `port` at
    /// `engine`'s tile only moves a flit on cycles where
    /// `cycle % period == 0` — a link at `1/period` of nominal
    /// bandwidth. Credits are conserved; this is pure slowdown.
    ///
    /// # Panics
    /// Panics if `period < 2` (that would be a healthy link).
    pub fn fault_link_slow(&mut self, engine: EngineId, port: PortDir, until: Cycle, period: u64) {
        assert!(period >= 2, "slow-link period must be >= 2");
        let tile = self.tile_of(engine);
        self.faults_mut().slow.push(SlowLink {
            tile,
            port,
            until,
            period,
        });
    }

    /// Fault injection: confiscates up to `n` credits from
    /// (`engine`, `port`) immediately, returning them at `until`.
    /// Returns how many credits were actually taken (0 if the port has
    /// no link or no credits are free right now).
    pub fn fault_hold_credits(
        &mut self,
        engine: EngineId,
        port: PortDir,
        n: usize,
        until: Cycle,
    ) -> usize {
        let tile = self.tile_of(engine);
        let taken = self.routers[tile].fault_take_credits(port, n);
        if taken > 0 {
            self.faults_mut().holds.push(CreditHold {
                tile,
                port,
                taken,
                until,
            });
        }
        taken
    }

    /// Messages destroyed by injected ejection drops (0 when no fault
    /// API has been used).
    #[must_use]
    pub fn lost_messages(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.lost_messages)
    }

    /// Local credits leaked by injected ejection drops.
    #[must_use]
    pub fn leaked_credits(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.leaked_credits)
    }

    /// Messages destroyed by injected ejection drops, attributed to
    /// `tenant` via the flit tenant tag (0 when no fault API has been
    /// used or the tenant never lost a message).
    #[must_use]
    pub fn lost_of(&self, tenant: TenantId) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |f| f.lost_by_tenant.get(&tenant).copied().unwrap_or(0))
    }

    /// Applies time-varying fault state for this cycle: expires and
    /// applies link slowdowns, returns credits whose hold elapsed.
    /// Called at the top of [`MeshNetwork::tick`] when faults exist.
    fn drive_faults(&mut self, now: Cycle) {
        let Some(mut faults) = self.faults.take() else {
            return;
        };
        // Expired slowdowns unmask their port; active ones mask it on
        // off-period cycles.
        faults.slow.retain(|s| {
            if now >= s.until {
                self.routers[s.tile].set_fault_blocked(s.port, false);
                false
            } else {
                true
            }
        });
        for s in &faults.slow {
            self.routers[s.tile].set_fault_blocked(s.port, !now.0.is_multiple_of(s.period));
        }
        // Elapsed credit holds hand their credits back.
        faults.holds.retain(|h| {
            if now >= h.until {
                self.routers[h.tile].fault_return_credits(h.port, h.taken);
                false
            } else {
                true
            }
        });
        self.faults = Some(faults);
    }

    #[inline]
    fn tile_of(&self, engine: EngineId) -> usize {
        self.lut
            .tile_of(engine)
            .unwrap_or_else(|| panic!("engine {engine} not placed"))
    }

    /// Queues `msg` for transmission from `from` toward
    /// `msg.next_engine()` (or `to` explicitly). Segments into flits at
    /// the configured channel width.
    ///
    /// # Panics
    /// Panics if either engine is not placed.
    pub fn send(&mut self, from: EngineId, to: EngineId, msg: Message, now: Cycle) {
        let tile = self.tile_of(from);
        // The destination is resolved to a coordinate once, here, where
        // an unplaced engine is attributable to the sender; routers
        // then route on the coordinate alone.
        let dest = self
            .lut
            .coord_of(to)
            .unwrap_or_else(|| panic!("engine {to} not placed"));
        let total = Flit::flits_for(&msg, self.config.width_bits);
        let to_tile = self.tile_of(to);
        self.bound[to_tile] += 1;
        self.shared_dests += usize::from(self.bound[to_tile] == 2);
        let slot = self.slab_insert(InFlight { msg, sent: now });
        self.stats.injected_messages += 1;
        self.queued_behind += usize::from(self.source[tile].flits > 0);
        self.source[tile].push(SourceRun {
            slot,
            left: total,
            dest,
            fresh: true,
        });
        self.resident_flits += u64::from(total);
        self.source_pending[tile / 64] |= 1 << (tile % 64);
    }

    /// Stores `entry` in a vacant slab slot, growing the slab (and the
    /// free list, worm records, waiting list and segment list with it)
    /// only when none is vacant.
    fn slab_insert(&mut self, entry: InFlight) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            self.slab[slot as usize] = Some(entry);
            return slot;
        }
        let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 messages in flight");
        self.slab.push(Some(entry));
        self.worms.push(Worm::OUT);
        // `free_slots` is empty here; room for every slot means the
        // ejection path never grows it, nor a tick the other two.
        self.free_slots.reserve(self.slab.len());
        self.waiting.reserve(self.slab.len() - self.waiting.len());
        self.segs.reserve(self.slab.len() - self.segs.len());
        slot
    }

    /// Vacates `slot`, returning the message a tail flit closes.
    fn slab_remove(&mut self, slot: u32) -> InFlight {
        let entry = self.slab[slot as usize]
            .take()
            .expect("tail flit names a live slab slot");
        self.free_slots.push(slot);
        entry
    }

    /// Flits waiting in `engine`'s source queue (growth here means the
    /// network is saturated for this sender).
    #[must_use]
    pub fn source_depth(&self, engine: EngineId) -> usize {
        self.source[self.tile_of(engine)].flits
    }

    /// Flits waiting in `engine`'s ejection buffer.
    #[must_use]
    pub fn ejection_depth(&self, engine: EngineId) -> usize {
        self.ejection[self.tile_of(engine)].len()
    }

    /// One word of the non-empty-ejection-buffer bitmask (bit `t % 64`
    /// of word `t / 64` is set while tile `t` holds an ejected flit).
    /// The NIC's ejection pass iterates set bits instead of polling
    /// every tile every cycle.
    #[inline]
    #[must_use]
    pub fn ejection_pending_word(&self, word: usize) -> u64 {
        self.ejection_pending[word]
    }

    /// Drains one flit from `engine`'s ejection buffer (the tile's
    /// one-flit-per-cycle RX interface). Returns the assembled message
    /// when the drained flit is a tail.
    pub fn poll_ejected(&mut self, engine: EngineId, now: Cycle) -> Option<Message> {
        self.poll_ejected_at(self.tile_of(engine), now)
    }

    /// [`MeshNetwork::poll_ejected`] by tile index (a bit position in
    /// [`MeshNetwork::ejection_pending_word`]), for a caller that walks
    /// that mask and so already holds the index.
    pub fn poll_ejected_at(&mut self, tile: usize, now: Cycle) -> Option<Message> {
        let flit = self.ejection[tile].pop_front()?;
        self.resident_flits -= 1;
        if self.ejection[tile].is_empty() {
            self.ejection_pending[tile / 64] &= !(1 << (tile % 64));
        }
        if !flit.kind.is_tail() {
            self.routers[tile].refill_credit(PortDir::Local);
            return None;
        }
        self.bound[tile] -= 1;
        self.shared_dests -= usize::from(self.bound[tile] == 1);
        let InFlight { msg, sent } = self.slab_remove(flit.slot);
        // Injected ejection drop: destroy the message at the tail (the
        // earlier flits of the message were drained and credited
        // normally) and leak the tail's Local credit — the canonical
        // lost-packet-plus-leaked-credit failure.
        if let Some(faults) = self.faults.as_deref_mut() {
            if let Some(armed) = faults.drop_armed.get_mut(&tile) {
                if *armed > 0 {
                    *armed -= 1;
                    faults.lost_messages += 1;
                    faults.leaked_credits += 1;
                    *faults.lost_by_tenant.entry(msg.tenant).or_insert(0) += 1;
                    if self.tracer.enabled() {
                        self.tracer.instant_arg(
                            self.tracks[tile],
                            "fault.drop",
                            now,
                            "msg",
                            msg.id.0,
                        );
                    }
                    return None;
                }
            }
        }
        self.routers[tile].refill_credit(PortDir::Local);
        let dur = now.since(sent);
        self.stats.latency.record(dur.count());
        if self.tracer.enabled() {
            self.tracer
                .complete_arg(self.tracks[tile], "noc.msg", sent, dur, "msg", msg.id.0);
        }
        self.stats.delivered_messages += 1;
        Some(msg)
    }

    /// Drains everything already in `engine`'s ejection buffer,
    /// ignoring the per-cycle RX limit. Test/measurement helper — NIC
    /// models must use [`Self::poll_ejected`].
    pub fn drain_ejected(&mut self, engine: EngineId, now: Cycle) -> Vec<Message> {
        let mut out = Vec::new();
        while self.ejection_depth(engine) > 0 {
            if let Some(m) = self.poll_ejected(engine, now) {
                out.push(m);
            }
        }
        out
    }

    /// Advances the network one cycle.
    ///
    /// Injection, then three phases, all deciding from pre-tick router
    /// state. A worm's *segment* is a run of consecutive hops whose
    /// FIFOs hold the worm's flits at their front, behind an open
    /// wormhole, with a credit. Pass 1 of each of those routers' plans
    /// would grant every such hop, and each hop would forward one flit
    /// and receive the next, so the worm moves in one step at its two
    /// ends: its first hop gives a flit, and the buffer past its last
    /// hop — the input holding its head or a message stuck ahead of it,
    /// or the ejection buffer — gains one. The FIFOs in between are not
    /// touched: each holds only this worm's body flits, and the credit
    /// toward it stands.
    ///
    /// 1. **Walk** the worms without a segment from their tail-most run
    ///    to find one.
    /// 2. **Plan** the routers with an input in no segment, leaving the
    ///    segments' inputs out.
    /// 3. **Commit** the plans, then step every segment and bring its
    ///    ends up to date for the next tick: a last hop that lost its
    ///    credit leaves it, the hop past it joins once it qualifies, and
    ///    a first hop that ran dry leaves it.
    ///
    /// Everything that is not such a hop — a head that has to win an
    /// output, contention, a hop without a credit — is planned and
    /// committed a flit at a time. A traced mesh, or one with a slow
    /// link or a credit hold active, keeps no segment, so `noc.hop` and
    /// `noc.credit_stall` come from the plans alone.
    pub fn tick(&mut self, now: Cycle) {
        if self.faults.is_some() {
            self.drive_faults(now);
        }
        if self.resident_flits == 0 {
            // Nothing to inject, walk, plan or step, and no segment.
            debug_assert!(self.waiting.is_empty() && self.segs.is_empty());
            return;
        }
        self.active_cycles += 1;
        let traced = self.tracer.enabled();
        let streamable = !traced
            && self
                .faults
                .as_ref()
                .is_none_or(|f| f.slow.is_empty() && f.holds.is_empty());
        if !streamable && !self.segs.is_empty() {
            self.streaming.fill(0);
            while !self.segs.is_empty() {
                self.dissolve(self.segs.len() - 1);
            }
        }

        // Injection: each tile's Local input accepts at most one flit
        // per cycle from the source queue (the local channel is one
        // flit wide, like every other channel). The pending bitmask
        // visits only tiles that actually hold queued traffic. Where a
        // segment starts at that input, its stream step injects instead.
        for word in 0..self.source_pending.len() {
            for bit in set_bits(self.source_pending[word]) {
                let tile = word * 64 + bit;
                if self.streaming[tile] & (1 << LOCAL) != 0 {
                    self.deferred[word] |= 1 << bit;
                    continue;
                }
                self.inject(tile);
            }
        }

        // Phase 1: walk the worms without a segment (the segments were
        // brought up to date at the end of the last tick).
        if streamable {
            let mut k = 0;
            while k < self.waiting.len() {
                if !self.walk(k) {
                    k += 1;
                }
            }
        }

        // Phase 2: every router holding a flit outside the segments
        // allocates its switch from pre-tick state, without the
        // segments' inputs. An idle router can grant neither a flit nor
        // a credit return nor a stall, so it is not visited at all.
        for word in 0..self.planned.len() {
            // Which tiles to plan is decided without a branch a tile:
            // about a quarter are, in no pattern.
            let mut planned = 0;
            for bit in set_bits(self.active[word]) {
                let tile = word * 64 + bit;
                let unstreamed = self.routers[tile].nonempty() & !self.streaming[tile];
                planned |= u64::from(unstreamed != 0) << bit;
            }
            self.planned[word] = planned;
            for bit in set_bits(planned) {
                let tile = word * 64 + bit;
                self.plans[tile] = self.routers[tile].plan_inputs(!self.streaming[tile]);
            }
        }

        // Phase 3: execute the plans — move each winning flit straight
        // from its input FIFO to the downstream buffer (one move per
        // hop) and return one credit to the upstream router it vacated.
        // Tiles and outputs ascend, which fixes the trace event order.
        for word in 0..self.planned.len() {
            for bit in set_bits(self.planned[word]) {
                let tile = word * 64 + bit;
                let plan = self.plans[tile];
                // Credit stalls: outputs that wanted to send but were
                // blocked by a full downstream buffer.
                if traced {
                    for p in set_bits(u64::from(plan.stalled)) {
                        self.tracer.instant_arg(
                            self.tracks[tile],
                            "noc.credit_stall",
                            now,
                            "port",
                            p as u64,
                        );
                    }
                }
                for o in set_bits(u64::from(plan.granted)) {
                    let i = usize::from(plan.winner[o]);
                    let (flit, emptied) = self.routers[tile].pop(i);
                    self.vacate(tile, i);
                    self.wake_back(tile, i);
                    if flit.kind == FlitKind::Head {
                        // The flits behind it now follow an open
                        // wormhole.
                        self.wake(flit.slot);
                    }
                    if emptied {
                        self.run_left(flit.slot, tile, i, o);
                    }
                    if traced {
                        let msg = &self.slab[flit.slot as usize]
                            .as_ref()
                            .expect("flit in the mesh names a live slab slot")
                            .msg;
                        self.tracer
                            .instant_arg(self.tracks[tile], "noc.hop", now, "msg", msg.id.0);
                    }
                    self.forward(tile, o, flit);
                }
                if self.routers[tile].is_idle() {
                    self.active[word] &= !(1 << bit);
                }
            }
        }
        // Then every segment's stream step.
        let (mut k, mut streamed) = (0, 0);
        while k < self.segs.len() {
            streamed += u64::from(self.segs[k].hops);
            if self.advance(k) {
                k += 1;
            }
        }
        self.streamed += streamed;
        self.deferred.fill(0);
    }

    /// Moves one flit from `tile`'s source queue into its Local input,
    /// if that has room.
    #[inline]
    fn inject(&mut self, tile: usize) {
        if self.routers[tile].input_space(PortDir::Local) == 0 {
            return;
        }
        let flit = self.take_source(tile);
        self.routers[tile].accept(PortDir::Local, flit);
        self.active[tile / 64] |= 1 << (tile % 64);
        // The source is upstream of every router on the path, so the
        // newest flit is always tail-most.
        self.enter(flit.slot, tile, LOCAL);
        if flit.kind == FlitKind::Head {
            // Nothing streams behind a head that has not won an output.
            self.worms[flit.slot as usize].state = WormState::Blocked;
        }
    }

    /// Pops the next flit of `tile`'s source queue.
    #[inline(always)]
    fn take_source(&mut self, tile: usize) -> FlitHandle {
        let source = &mut self.source[tile];
        let (flit, moved_up) = source.pop();
        self.queued_behind -= usize::from(moved_up);
        if source.flits == 0 {
            self.source_pending[tile / 64] &= !(1 << (tile % 64));
        }
        flit
    }

    /// Grows segment `s` from input `input` of `tile` toward the head
    /// while each hop holds the worm's run at the front of its FIFO,
    /// behind an open wormhole, with a credit. It stops at an empty FIFO
    /// (the worm's flits further on moved away), a run queued behind
    /// another message, or the head itself still waiting for an output.
    #[inline]
    fn grow(&mut self, s: &mut Seg, mut tile: usize, mut input: usize) {
        loop {
            let router = &self.routers[tile];
            if router.len(input) == 0 || router.front(input).slot != s.slot {
                return;
            }
            let out = router.in_route(input);
            if out == NO_PORT || !router.can_send(usize::from(out)) {
                return;
            }
            self.streaming[tile] |= 1 << input;
            if s.hops == 0 {
                (s.first, s.first_in, s.first_out) = (tile as u16, input as u8, out);
            }
            s.hops += 1;
            (s.last, s.last_in, s.last_out) = (tile as u16, input as u8, out);
            if usize::from(out) == LOCAL {
                return;
            }
            tile = usize::from(self.neighbor_idx[tile][usize::from(out)]);
            input = usize::from(OPPOSITE[usize::from(out)]);
        }
    }

    /// Phase 1 for the `k`th waiting worm: a walk from its tail-most
    /// run; true when it found a segment (the worm then leaves
    /// `waiting`).
    fn walk(&mut self, k: usize) -> bool {
        let slot = self.waiting[k];
        let worm = self.worms[slot as usize];
        if worm.state == WormState::Blocked {
            return false;
        }
        let mut s = Seg {
            slot,
            hops: 0,
            first: NO_TILE,
            last: NO_TILE,
            first_in: 0,
            first_out: 0,
            last_in: 0,
            last_out: 0,
        };
        self.grow(
            &mut s,
            usize::from(worm.tail_tile),
            usize::from(worm.tail_port),
        );
        if s.hops == 0 {
            // Short of an ejection credit, the walk is tried again every
            // tick; anything else waits for a pop (see `wake_back`).
            let (tile, input) = (usize::from(worm.tail_tile), usize::from(worm.tail_port));
            let router = &self.routers[tile];
            if router.len(input) == 0
                || router.front(input).slot != slot
                || usize::from(router.in_route(input)) != LOCAL
            {
                self.worms[slot as usize].state = WormState::Blocked;
            }
            return false;
        }
        self.waiting.swap_remove(k);
        if let Some(&moved) = self.waiting.get(k) {
            self.worms[moved as usize].at = k as u32;
        }
        self.worms[slot as usize] = Worm {
            at: self.segs.len() as u32,
            state: WormState::Streaming,
            ..worm
        };
        self.segs.push(s);
        true
    }

    /// Removes segment `k` (its hops already unmarked) and puts its worm
    /// back among the waiting ones.
    fn dissolve(&mut self, k: usize) {
        let s = self.segs.swap_remove(k);
        if let Some(moved) = self.segs.get(k) {
            self.worms[moved.slot as usize].at = k as u32;
        }
        let worm = &mut self.worms[s.slot as usize];
        worm.state = WormState::Waiting;
        worm.at = self.waiting.len() as u32;
        self.waiting.push(s.slot);
    }

    /// Phase 3 for segment `k`: its first hop gives its front flit and
    /// the buffer past its last hop gains one; then its ends are brought
    /// up to date from the state this tick leaves. False when the
    /// segment ran out of hops and was removed (another now sits at
    /// `k`).
    ///
    /// The common case writes nothing back to `segs`: a segment changes
    /// only when a hop leaves or joins it.
    fn advance(&mut self, k: usize) -> bool {
        let s = self.segs[k];
        let (first, first_in) = (usize::from(s.first), usize::from(s.first_in));
        let deferred = first_in == LOCAL && self.deferred[first / 64] & (1 << (first % 64)) != 0;
        let (leaving, vacated) = if deferred {
            self.source_step(first, s.slot)
        } else {
            self.pop_at(first, first_in)
        };
        if leaving.kind.is_tail() {
            self.tail_passes(&s);
        }
        let (last, last_out) = (usize::from(s.last), usize::from(s.last_out));
        self.routers[last].spend_credit(last_out);
        // What enters the next buffer is the last hop's front flit: the
        // first hop's own when the segment is one hop, a body flit else.
        let kind = if s.hops == 1 {
            leaving.kind
        } else {
            FlitKind::Body
        };
        self.forward(last, last_out, FlitHandle { kind, ..leaving });
        if vacated && !self.shrink(k) {
            return false;
        }
        // The head end, for the next tick: a last hop without a credit
        // leaves the segment (it is planned and stalls, as it would
        // have), and the hop past the last one joins once it qualifies.
        // Polls, sends and fault changes between ticks can only add
        // credits or end streaming for everyone.
        if !self.routers[last].can_send(last_out) {
            return self.trim(k);
        }
        if last_out != LOCAL {
            let next = usize::from(self.neighbor_idx[last][last_out]);
            let input = usize::from(OPPOSITE[last_out]);
            if self.joins(s.slot, next, input) {
                let mut grown = self.segs[k];
                self.grow(&mut grown, next, input);
                self.segs[k] = grown;
            }
        }
        true
    }

    /// True when input `input` of `tile` can join worm `slot`'s
    /// segment: its FIFO holds the worm's run at the front, behind an
    /// open wormhole, with a credit.
    #[inline(always)]
    fn joins(&self, slot: u32, tile: usize, input: usize) -> bool {
        let router = &self.routers[tile];
        if router.len(input) == 0 || router.front(input).slot != slot {
            return false;
        }
        let out = router.in_route(input);
        out != NO_PORT && router.can_send(usize::from(out))
    }

    /// Segment `k`'s last hop lost its credit: it and every hop before it
    /// without one leave the segment. False when no hop is left (the
    /// segment is then removed).
    #[cold]
    fn trim(&mut self, k: usize) -> bool {
        let mut s = self.segs[k];
        while !self.routers[usize::from(s.last)].can_send(usize::from(s.last_out)) {
            self.streaming[usize::from(s.last)] &= !(1 << s.last_in);
            s.hops -= 1;
            if s.hops == 0 {
                self.segs[k] = s;
                self.dissolve(k);
                return false;
            }
            let up = self.neighbor_idx[usize::from(s.last)][usize::from(s.last_in)];
            s.last_out = OPPOSITE[usize::from(s.last_in)];
            s.last = up;
            s.last_in = self.routers[usize::from(up)].owner(usize::from(s.last_out));
        }
        self.segs[k] = s;
        true
    }

    /// Pops input `i` of `tile` for a segment's first hop and returns the
    /// credit upstream.
    #[inline(always)]
    fn pop_at(&mut self, tile: usize, i: usize) -> (FlitHandle, bool) {
        let popped = self.routers[tile].pop(i);
        self.vacate(tile, i);
        self.wake_back(tile, i);
        if self.routers[tile].is_idle() {
            self.active[tile / 64] &= !(1 << (tile % 64));
        }
        popped
    }

    /// The tail left segment `s`'s first hop: the wormhole there
    /// closes, and past the first hop the tail joins a run whose count
    /// stands (it forwards a flit and receives the tail).
    #[inline]
    fn tail_passes(&mut self, s: &Seg) {
        let (first, first_in, first_out) = (
            usize::from(s.first),
            usize::from(s.first_in),
            usize::from(s.first_out),
        );
        self.routers[first].release(first_out, first_in);
        if s.hops > 1 {
            let next = usize::from(self.neighbor_idx[first][first_out]);
            self.routers[next].mark_back_tail(usize::from(OPPOSITE[first_out]));
        }
    }

    /// Segment `k`'s first hop holds none of the worm now. A source
    /// input the worm still injects into is fed again next tick, so it
    /// stays, and stays the worm's tail-most position; any other leaves
    /// the segment, and the tail-most run moves on if it was that one.
    /// False when no hop is left (the segment is then removed).
    fn shrink(&mut self, k: usize) -> bool {
        let mut s = self.segs[k];
        let (first, first_in, first_out) = (
            usize::from(s.first),
            usize::from(s.first_in),
            usize::from(s.first_out),
        );
        if first_in == LOCAL && first_out != LOCAL && self.source[first].feeds(s.slot) {
            return true;
        }
        self.streaming[first] &= !(1 << first_in);
        s.hops -= 1;
        if s.hops == 0 {
            self.segs[k] = s;
            self.dissolve(k);
        } else {
            let next = self.neighbor_idx[first][first_out];
            s.first = next;
            s.first_in = OPPOSITE[first_out];
            s.first_out = self.routers[usize::from(next)].in_route(usize::from(s.first_in));
            self.segs[k] = s;
        }
        self.run_left(s.slot, first, first_in, first_out);
        s.hops > 0
    }

    /// A first hop at `tile`'s Local input whose injection this tick was
    /// deferred to here: the hop forwards the worm's front flit and the
    /// source injects, as the injection phase would have had it.
    /// Returns the flit that leaves and whether the input holds none of
    /// the worm afterwards.
    #[inline(always)]
    fn source_step(&mut self, tile: usize, slot: u32) -> (FlitHandle, bool) {
        let held = self.routers[tile].len(LOCAL);
        let space = self.routers[tile].input_space(PortDir::Local) > 0;
        if space && self.source[tile].feeds(slot) {
            // The worm feeds itself: the injected flit joins its run.
            let injected = self.take_source(tile);
            if held == 0 {
                // It goes straight through; the input counts as vacated
                // only once the source has no more of the worm.
                return (injected, injected.kind.is_tail());
            }
            // The run forwards its front flit and takes the injected one
            // at its back: its count stands.
            if injected.kind.is_tail() {
                self.routers[tile].mark_back_tail(LOCAL);
            }
            let leaving = FlitHandle {
                kind: FlitKind::Body,
                ..injected
            };
            return (leaving, false);
        }
        let popped = self.pop_at(tile, LOCAL);
        if space {
            // The next message queues behind.
            self.inject(tile);
        }
        popped
    }

    /// Returns the credit for a flit that left input `i` of `tile` to
    /// the upstream router (Local input drains come from the source
    /// queue, which is not credited).
    #[inline(always)]
    fn vacate(&mut self, tile: usize, i: usize) {
        if i != LOCAL {
            let up = self.neighbor_idx[tile][i];
            debug_assert_ne!(up, NO_TILE, "credit from a port with no link");
            self.routers[usize::from(up)].refill_credit(PortDir::ALL[usize::from(OPPOSITE[i])]);
        }
    }

    /// Moves `flit`, forwarded by `tile` through output `o`, into the
    /// downstream router's input or the tile's ejection buffer.
    #[inline(always)]
    fn forward(&mut self, tile: usize, o: usize, flit: FlitHandle) {
        if o == LOCAL {
            self.stats.delivered_flits += 1;
            self.ejection[tile].push_back(flit);
            self.ejection_pending[tile / 64] |= 1 << (tile % 64);
        } else {
            let down = self.neighbor_idx[tile][o];
            debug_assert_ne!(down, NO_TILE, "granted flit toward a missing link");
            let down = usize::from(down);
            self.routers[down].accept(PortDir::ALL[usize::from(OPPOSITE[o])], flit);
            self.active[down / 64] |= 1 << (down % 64);
        }
    }

    /// Worm `slot`'s run at input `i` of `tile` gave its last flit
    /// through output `o`: if it was the tail-most run, the tail-most
    /// run is now where that flit went, or the worm has left the
    /// routers.
    fn run_left(&mut self, slot: u32, tile: usize, i: usize, o: usize) {
        let worm = self.worms[slot as usize];
        if usize::from(worm.tail_tile) != tile || usize::from(worm.tail_port) != i {
            return;
        }
        if o != LOCAL {
            let down = usize::from(self.neighbor_idx[tile][o]);
            self.enter(slot, down, usize::from(OPPOSITE[o]));
            return;
        }
        debug_assert_ne!(
            worm.state,
            WormState::Streaming,
            "a worm left the routers with a segment"
        );
        let at = worm.at as usize;
        self.waiting.swap_remove(at);
        if let Some(&moved) = self.waiting.get(at) {
            self.worms[moved as usize].at = at as u32;
        }
        self.worms[slot as usize] = Worm::OUT;
    }

    /// A pop freed a place in input `i` of `tile`: the worm whose flits
    /// entered it last — the one holding the output that feeds it — has
    /// a credit there again, so if blocked it is walked again.
    #[inline]
    fn wake_back(&mut self, tile: usize, i: usize) {
        if let Some(slot) = self.routers[tile].back_slot(i) {
            self.wake(slot);
        }
    }

    /// Worm `slot`, if blocked, is walked again.
    #[inline]
    fn wake(&mut self, slot: u32) {
        let worm = &mut self.worms[slot as usize];
        if worm.state == WormState::Blocked {
            worm.state = WormState::Waiting;
        }
    }

    /// Worm `slot`'s tail-most run is now at input `i` of `tile`; a
    /// worm entering the routers starts out waiting.
    fn enter(&mut self, slot: u32, tile: usize, i: usize) {
        let worm = &mut self.worms[slot as usize];
        worm.tail_tile = tile as u16;
        worm.tail_port = i as u8;
        match worm.state {
            WormState::Out => {
                worm.state = WormState::Waiting;
                worm.at = self.waiting.len() as u32;
                self.waiting.push(slot);
            }
            WormState::Blocked => worm.state = WormState::Waiting,
            WormState::Waiting | WormState::Streaming => {}
        }
    }

    /// Fast-forward hint (see [`sim_core::Driven::wakes`] for the
    /// contract), given `polled`: true for each tile whose ejection
    /// buffer the caller polls every cycle until its next activity, and
    /// false for a tile it never polls meanwhile.
    ///
    /// `None` while the network is quiescent — with no flit anywhere,
    /// ticking is a pure no-op until the next [`MeshNetwork::send`] —
    /// and while nothing in it can move: every message sits in the
    /// ejection buffer of a tile that is not polled. Otherwise, when
    /// every message is in *clear transit* (see [`MeshNetwork::glide`]),
    /// the cycle on which the first tail is polled; and `Some(now + 1)`
    /// when one is not.
    ///
    /// Pending fault expirations (slow-link unmask, credit-hold return)
    /// do not pin the hint: a slow link or credit hold still on the
    /// books stops gliding, so the mesh is ticked, and
    /// [`MeshNetwork::tick`] re-derives their state from `now`.
    #[must_use]
    pub fn next_activity(&self, now: Cycle, polled: impl Fn(usize) -> bool) -> Option<Cycle> {
        if self.is_quiescent() {
            return None;
        }
        let mut plan = self.plan.borrow_mut();
        match self.plan_into(&mut plan, &polled) {
            Some(()) => plan
                .horizon()
                .map(|tail| Cycle(now.0 + 1 + u64::from(tail))),
            None => Some(now.next()),
        }
    }

    /// True when no flit is anywhere in the network (sources, router
    /// buffers, or ejection buffers).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        debug_assert_eq!(
            self.resident_flits == 0,
            self.source.iter().all(|s| s.flits == 0)
                && self.ejection.iter().all(VecDeque::is_empty)
                && self.routers.iter().all(|r| r.buffered_flits() == 0),
            "resident-flit counter out of sync with buffer occupancy"
        );
        debug_assert!(
            self.routers
                .iter()
                .enumerate()
                .all(|(t, r)| r.is_idle() == (self.active[t / 64] & (1 << (t % 64)) == 0)),
            "active-tile mask out of sync with router occupancy"
        );
        debug_assert_eq!(
            self.queued_behind,
            self.source.iter().map(|s| s.behind.len()).sum::<usize>(),
            "backlog counter out of sync with the source queues"
        );
        debug_assert_eq!(
            self.shared_dests,
            self.bound.iter().filter(|&&n| n > 1).count(),
            "shared-destination counter out of sync with the bound counts"
        );
        self.resident_flits == 0
    }

    /// Cycles on which [`MeshNetwork::tick`] found at least one flit
    /// resident anywhere in the network (sources, router buffers, or
    /// ejection buffers) — the NoC's share of simulated activity.
    #[must_use]
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// Total flits forwarded by all routers (≈ flit-hops), planned,
    /// streamed and glided alike.
    #[must_use]
    pub fn total_flit_hops(&self) -> u64 {
        self.routers
            .iter()
            .map(Router::flits_forwarded)
            .sum::<u64>()
            + self.streamed
            + self.glided_hops
    }

    /// The part of [`MeshNetwork::total_flit_hops`] moved by stream
    /// steps instead of router plans: a measure of the simulator's own
    /// work, not of the simulated mesh, so no metric exports it.
    #[must_use]
    pub fn streamed_flit_hops(&self) -> u64 {
        self.streamed
    }

    /// The part of [`MeshNetwork::total_flit_hops`] moved by
    /// [`MeshNetwork::glide`], apart from the streamed part. Like it, no
    /// metric exports it.
    #[must_use]
    pub fn glided_flit_hops(&self) -> u64 {
        self.glided_hops
    }

    /// The part of [`MeshNetwork::active_cycles`] that
    /// [`MeshNetwork::glide`] advanced without a tick.
    #[must_use]
    pub fn glided_cycles(&self) -> u64 {
        self.glided_cycles
    }

    /// Coordinate of `engine`'s tile.
    #[must_use]
    pub fn coord_of(&self, engine: EngineId) -> Coord {
        self.placement.coord_of(engine).expect("engine placed")
    }
}

mod glide;

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use packet::{MessageBuilder, MessageId, MessageKind};
    use sim_core::rng::SimRng;
    use trace::MetricsRegistry;

    fn msg(id: u64, payload: usize) -> Message {
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0xAB; payload]))
            .build()
    }

    #[allow(dead_code)]
    fn builder_sanity(b: MessageBuilder) -> Message {
        b.build()
    }

    fn net_3x3() -> MeshNetwork {
        let topo = Topology::mesh(3, 3);
        let cfg = NetworkConfig {
            topology: topo,
            width_bits: 64,
            router: RouterConfig::default(),
        };
        MeshNetwork::new(cfg, Placement::row_major(topo))
    }

    fn run(net: &mut MeshNetwork, from: Cycle, cycles: u64) -> Cycle {
        let mut now = from;
        for _ in 0..cycles {
            net.tick(now);
            now = now.next();
        }
        now
    }

    #[test]
    fn single_message_crosses_the_mesh() {
        let mut net = net_3x3();
        // Engine 0 at (0,0) sends 64B to engine 8 at (2,2): 4 hops.
        net.send(EngineId(0), EngineId(8), msg(1, 64), Cycle(0));
        let mut now = Cycle(0);
        let mut got = None;
        for _ in 0..200 {
            net.tick(now);
            now = now.next();
            if let Some(m) = net.poll_ejected(EngineId(8), now) {
                got = Some(m);
                break;
            }
        }
        let m = got.expect("message delivered");
        assert_eq!(m.id, MessageId(1));
        assert_eq!(m.payload.len(), 64);
        assert_eq!(net.stats().delivered_messages, 1);
        assert_eq!(net.stats().injected_messages, 1);
        // 9 flits, 4 hops + ejection: serialization dominates. The tail
        // leaves the source after 9 injection cycles, then needs ~5 more
        // to arrive: latency must be at least flits + distance.
        let lat = net.stats().latency.max();
        assert!(lat >= 13, "latency {lat} too small to be physical");
        assert!(lat <= 40, "latency {lat} unexpectedly large");
    }

    #[test]
    fn message_to_self_tile_loops_through_local_port() {
        let mut net = net_3x3();
        net.send(EngineId(4), EngineId(4), msg(7, 16), Cycle(0));
        let mut now = Cycle(0);
        for _ in 0..50 {
            net.tick(now);
            now = now.next();
            if let Some(m) = net.poll_ejected(EngineId(4), now) {
                assert_eq!(m.id, MessageId(7));
                return;
            }
        }
        panic!("self-addressed message never delivered");
    }

    #[test]
    fn many_messages_all_arrive_exactly_once() {
        let mut net = net_3x3();
        let mut rng = SimRng::new(42);
        let mut sent = 0u64;
        let mut now = Cycle(0);
        let mut received: Vec<u64> = Vec::new();
        // Inject 60 random unicasts over 300 cycles, draining as we go.
        for step in 0..2000u64 {
            if step < 300 && step % 5 == 0 {
                let from = EngineId(rng.gen_range(9) as u16);
                let to = EngineId(rng.gen_range(9) as u16);
                net.send(from, to, msg(1000 + sent, 64), now);
                sent += 1;
            }
            net.tick(now);
            now = now.next();
            for e in 0..9u16 {
                if let Some(m) = net.poll_ejected(EngineId(e), now) {
                    received.push(m.id.0);
                }
            }
            if received.len() as u64 == sent && step > 300 {
                break;
            }
        }
        assert_eq!(received.len() as u64, sent, "lossless delivery");
        received.sort_unstable();
        received.dedup();
        assert_eq!(received.len() as u64, sent, "no duplicates");
        assert!(net.is_quiescent(), "network drained");
    }

    #[test]
    fn congestion_backpressures_into_source_queue_without_loss() {
        let mut net = net_3x3();
        // Everyone blasts engine 8: its single ejection port (1 flit
        // per cycle) is the bottleneck. Nothing may be lost.
        let mut now = Cycle(0);
        let mut sent = 0u64;
        for burst in 0..40u64 {
            for e in 0..8u16 {
                net.send(
                    EngineId(e),
                    EngineId(8),
                    msg(burst * 100 + u64::from(e), 64),
                    now,
                );
                sent += 1;
            }
        }
        let mut received = 0u64;
        for _ in 0..40_000 {
            net.tick(now);
            now = now.next();
            if net.poll_ejected(EngineId(8), now).is_some() {
                received += 1;
            }
            if received == sent {
                break;
            }
        }
        assert_eq!(received, sent, "all messages delivered despite congestion");
        assert!(net.is_quiescent());
    }

    #[test]
    fn ejection_is_one_flit_per_cycle() {
        let mut net = net_3x3();
        // Two 64B messages to engine 8 take 18 flits; receiving all of
        // them requires at least 18 poll cycles.
        net.send(EngineId(0), EngineId(8), msg(1, 64), Cycle(0));
        net.send(EngineId(1), EngineId(8), msg(2, 64), Cycle(0));
        let mut now = Cycle(0);
        let mut deliveries = 0;
        let mut polls = 0u64;
        while deliveries < 2 && polls < 1000 {
            net.tick(now);
            now = now.next();
            polls += 1;
            if net.poll_ejected(EngineId(8), now).is_some() {
                deliveries += 1;
            }
        }
        assert_eq!(deliveries, 2);
        assert!(
            polls >= 18,
            "9-flit messages cannot eject faster than 1 flit/cycle"
        );
    }

    #[test]
    fn source_depth_reports_backlog() {
        let mut net = net_3x3();
        for i in 0..10 {
            net.send(EngineId(0), EngineId(8), msg(i, 64), Cycle(0));
        }
        assert_eq!(net.source_depth(EngineId(0)), 90); // 10 msgs x 9 flits
        run(&mut net, Cycle(0), 5);
        assert!(net.source_depth(EngineId(0)) < 90, "injection is draining");
    }

    #[test]
    fn latency_scales_with_distance() {
        // Average delivery latency to a far corner exceeds latency to a
        // neighbor, all else equal.
        let mut near_net = net_3x3();
        let mut far_net = net_3x3();
        for i in 0..20 {
            near_net.send(EngineId(0), EngineId(1), msg(i, 64), Cycle(0));
            far_net.send(EngineId(0), EngineId(8), msg(i, 64), Cycle(0));
        }
        let mut now = Cycle(0);
        for _ in 0..3000 {
            near_net.tick(now);
            far_net.tick(now);
            now = now.next();
            let _ = near_net.poll_ejected(EngineId(1), now);
            let _ = far_net.poll_ejected(EngineId(8), now);
        }
        assert_eq!(near_net.stats().delivered_messages, 20);
        assert_eq!(far_net.stats().delivered_messages, 20);
        assert!(
            far_net.stats().latency.mean() > near_net.stats().latency.mean(),
            "far {} <= near {}",
            far_net.stats().latency.mean(),
            near_net.stats().latency.mean()
        );
    }

    #[test]
    fn drain_ejected_returns_complete_messages() {
        let mut net = net_3x3();
        net.send(EngineId(3), EngineId(4), msg(5, 32), Cycle(0));
        let now = run(&mut net, Cycle(0), 30);
        let msgs = net.drain_ejected(EngineId(4), now);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].id, MessageId(5));
    }

    #[test]
    #[should_panic(expected = "not placed")]
    fn send_to_unplaced_engine_panics() {
        let mut net = net_3x3();
        net.send(EngineId(0), EngineId(99), msg(1, 8), Cycle(0));
    }

    #[test]
    fn tracer_records_hops_stalls_and_message_spans() {
        use trace::EventKind;
        let mut net = net_3x3();
        let tracer = Tracer::ring(65536);
        net.attach_tracer(&tracer);
        // Everyone blasts engine 8: the single ejection port is the
        // bottleneck, so upstream credits must run dry at some point.
        let mut sent = 0u64;
        for burst in 0..10u64 {
            for e in 0..8u16 {
                net.send(
                    EngineId(e),
                    EngineId(8),
                    msg(burst * 100 + u64::from(e), 64),
                    Cycle(0),
                );
                sent += 1;
            }
        }
        let mut now = Cycle(0);
        let mut received = 0u64;
        for _ in 0..20_000 {
            net.tick(now);
            now = now.next();
            if net.poll_ejected(EngineId(8), now).is_some() {
                received += 1;
            }
            if received == sent {
                break;
            }
        }
        assert_eq!(received, sent);
        let events = tracer.ring_snapshot().unwrap();
        assert!(events.iter().any(|e| e.name == "noc.hop"));
        assert!(
            events.iter().any(|e| e.name == "noc.credit_stall"),
            "congestion toward one ejection port must stall credits"
        );
        let spans = events
            .iter()
            .filter(|e| e.name == "noc.msg" && matches!(e.kind, EventKind::Complete { .. }))
            .count() as u64;
        // The ring may have evicted early spans; at least the recent
        // deliveries must be present as spans.
        assert!(spans > 0, "no noc.msg spans recorded");

        let mut m = MetricsRegistry::new();
        net.export_metrics(&mut m, "noc");
        assert_eq!(m.counter("noc.injected_messages"), Some(sent));
        assert_eq!(m.counter("noc.delivered_messages"), Some(sent));
        assert!(m.counter("noc.flit_hops").unwrap() > 0);
        assert_eq!(m.histogram("noc.latency").unwrap().count(), sent);
    }

    #[test]
    fn two_copies_of_one_id_in_flight_each_record_their_own_sample() {
        use trace::EventKind;
        // A watchdog re-issue racing its late original: same
        // `MessageId`, two sends, both delivered. Each copy has its own
        // slab slot and so its own send stamp.
        let mut net = net_3x3();
        let tracer = Tracer::ring(4096);
        net.attach_tracer(&tracer);
        net.send(EngineId(0), EngineId(8), msg(7, 64), Cycle(0));
        net.send(EngineId(1), EngineId(8), msg(7, 64), Cycle(0));
        let mut now = Cycle(0);
        let mut got = 0;
        for _ in 0..200 {
            net.tick(now);
            now = now.next();
            got += usize::from(net.poll_ejected(EngineId(8), now).is_some());
        }
        assert_eq!(got, 2);
        assert_eq!(net.stats().latency.count(), 2);
        let spans = tracer
            .ring_snapshot()
            .unwrap()
            .iter()
            .filter(|e| e.name == "noc.msg" && matches!(e.kind, EventKind::Complete { .. }))
            .count();
        assert_eq!(spans, 2);
        assert!(net.is_quiescent());
    }

    #[test]
    fn slab_slots_are_reused_not_grown() {
        let mut net = net_3x3();
        let mut now = Cycle(0);
        for round in 0..50u64 {
            for e in 0..3u16 {
                net.send(
                    EngineId(e),
                    EngineId(8),
                    msg(round * 3 + u64::from(e), 16),
                    now,
                );
            }
            while !net.is_quiescent() {
                net.tick(now);
                now = now.next();
                let _ = net.poll_ejected(EngineId(8), now);
            }
        }
        assert_eq!(
            net.slab.len(),
            3,
            "three messages were ever in flight at once"
        );
        assert_eq!(net.free_slots.len(), 3);
    }

    #[test]
    fn ejection_drop_loses_message_and_leaks_exactly_one_credit() {
        let mut net = net_3x3();
        net.fault_drop_next_ejection(EngineId(8));
        // Two messages race to engine 8; whichever tail reassembles
        // first is the victim, the other must still arrive.
        net.send(EngineId(0), EngineId(8), msg(1, 64), Cycle(0));
        net.send(EngineId(1), EngineId(8), msg(2, 64), Cycle(0));
        let mut now = Cycle(0);
        let mut got = Vec::new();
        for _ in 0..2000 {
            net.tick(now);
            now = now.next();
            if let Some(m) = net.poll_ejected(EngineId(8), now) {
                got.push(m.id.0);
            }
            if net.is_quiescent() && net.ejection_depth(EngineId(8)) == 0 {
                break;
            }
        }
        assert_eq!(got.len(), 1, "exactly one victim, one survivor: {got:?}");
        assert_eq!(net.lost_messages(), 1);
        assert_eq!(net.leaked_credits(), 1);
        assert_eq!(net.stats().delivered_messages, 1);
        assert!(net.is_quiescent(), "drop must not wedge the mesh");
        // The shrunken credit pool still carries traffic.
        net.send(EngineId(0), EngineId(8), msg(3, 64), now);
        let mut ok = false;
        for _ in 0..2000 {
            net.tick(now);
            now = now.next();
            if net.poll_ejected(EngineId(8), now).is_some() {
                ok = true;
                break;
            }
        }
        assert!(ok, "tile must survive one leaked credit");
    }

    #[test]
    fn slow_link_delays_but_delivers() {
        let mut slow = net_3x3();
        let mut fast = net_3x3();
        // Throttle the East output of engine 0's tile to 1/4 rate for
        // the whole experiment window.
        slow.fault_link_slow(EngineId(0), PortDir::East, Cycle(100_000), 4);
        for net in [&mut slow, &mut fast] {
            for i in 0..10 {
                net.send(EngineId(0), EngineId(2), msg(i, 64), Cycle(0));
            }
            let mut now = Cycle(0);
            for _ in 0..5000 {
                net.tick(now);
                now = now.next();
                let _ = net.poll_ejected(EngineId(2), now);
                if net.stats().delivered_messages == 10 {
                    break;
                }
            }
        }
        assert_eq!(slow.stats().delivered_messages, 10, "slowdown is lossless");
        assert_eq!(fast.stats().delivered_messages, 10);
        assert!(
            slow.stats().latency.mean() > 2.0 * fast.stats().latency.mean(),
            "1/4-rate link should at least double latency: slow {} fast {}",
            slow.stats().latency.mean(),
            fast.stats().latency.mean()
        );
    }

    #[test]
    fn credit_hold_throttles_then_recovers() {
        let mut net = net_3x3();
        // Confiscate the whole East credit pool at engine 0's tile...
        let taken = net.fault_hold_credits(EngineId(0), PortDir::East, 8, Cycle(50));
        assert_eq!(taken, 8);
        net.send(EngineId(0), EngineId(2), msg(1, 64), Cycle(0));
        let mut now = Cycle(0);
        let mut delivered_at = None;
        for _ in 0..1000 {
            net.tick(now);
            now = now.next();
            if net.poll_ejected(EngineId(2), now).is_some() {
                delivered_at = Some(now);
                break;
            }
        }
        let at = delivered_at.expect("hold expires and message flows");
        assert!(at >= Cycle(50), "nothing crossed the held link early");
        assert!(net.is_quiescent());
        // Metrics: fault counters only exist once faults were engaged.
        let mut m = MetricsRegistry::new();
        net.export_metrics(&mut m, "noc");
        assert_eq!(m.counter("noc.lost_messages"), Some(0));
        let mut clean = net_3x3();
        clean.send(EngineId(0), EngineId(1), msg(1, 8), Cycle(0));
        let mut m2 = MetricsRegistry::new();
        clean.export_metrics(&mut m2, "noc");
        assert_eq!(m2.counter("noc.lost_messages"), None, "zero-cost when off");
    }

    #[test]
    fn nothing_streams_while_a_slow_link_is_active() {
        // Four long worms along row 0; a slow link elsewhere, until
        // cycle 400, keeps every worm on the planned path until it
        // expires.
        let mut net = net_3x3();
        net.fault_link_slow(EngineId(8), PortDir::North, Cycle(400), 2);
        let mut now = Cycle(0);
        let round = |net: &mut MeshNetwork, now: &mut Cycle| {
            for i in 0..4 {
                net.send(EngineId(0), EngineId(2), msg(i, 512), *now);
            }
            while !net.is_quiescent() {
                net.tick(*now);
                *now = now.next();
                let _ = net.poll_ejected(EngineId(2), *now);
            }
        };
        round(&mut net, &mut now);
        assert!(now < Cycle(400), "the first round ran inside the window");
        assert!(net.total_flit_hops() > 0);
        assert_eq!(net.streamed_flit_hops(), 0);
        now = Cycle(400);
        round(&mut net, &mut now);
        assert!(
            net.streamed_flit_hops() > 0,
            "streaming resumes once the link is healthy"
        );
    }

    #[test]
    fn disabled_tracer_changes_nothing() {
        let mut traced = net_3x3();
        traced.attach_tracer(&Tracer::disabled());
        let mut plain = net_3x3();
        for net in [&mut traced, &mut plain] {
            net.send(EngineId(0), EngineId(8), msg(1, 64), Cycle(0));
            run(net, Cycle(0), 60);
        }
        assert_eq!(
            traced.stats().delivered_flits,
            plain.stats().delivered_flits
        );
        assert_eq!(traced.total_flit_hops(), plain.total_flit_hops());
    }

    /// What the property test remembers about a message it sent.
    struct Sent {
        from: Coord,
        to: Coord,
        flits: u64,
        at: Cycle,
        payload: Bytes,
    }

    impl MeshNetwork {
        /// True when every structure that can hold a flit or a message
        /// is empty — what `is_quiescent()` summarises in one counter.
        fn holds_nothing(&self) -> bool {
            self.active.iter().all(|&w| w == 0)
                && self.source_pending.iter().all(|&w| w == 0)
                && self.ejection_pending.iter().all(|&w| w == 0)
                && self.slab.iter().all(Option::is_none)
        }
    }

    /// What holds for any correct wormhole mesh, under random traffic
    /// with link slowdowns, credit holds and ejection drops armed: every
    /// message not destroyed by a drop arrives exactly once with its
    /// bytes intact, each flit makes exactly XY-distance + 1 hops, no
    /// message beats its distance, credits come home, and the
    /// quiescence counter agrees with every structure it summarises on
    /// every cycle.
    fn check_mesh(w: u8, h: u8, width_bits: u64, input_buffer_flits: usize, seed: u64) {
        let topo = Topology::mesh(w, h);
        let cfg = NetworkConfig {
            topology: topo,
            width_bits,
            router: RouterConfig {
                input_buffer_flits,
                ejection_buffer_flits: 2 * input_buffer_flits,
            },
        };
        let mut net = MeshNetwork::new(cfg.clone(), Placement::row_major(topo));
        let mut rng = SimRng::new(seed);
        let engines = topo.nodes() as u64;
        let engine = |rng: &mut SimRng| EngineId(rng.gen_range(engines) as u16);

        // Faults: slowdowns and holds that end inside the run, and
        // at most one drop per tile (fewer than its Local credits).
        let mut faults_end = Cycle(0);
        for _ in 0..rng.gen_range(4) {
            let until = Cycle(1 + rng.gen_range(400));
            faults_end = faults_end.max(until);
            let port = PortDir::ALL[rng.gen_range(5) as usize];
            if rng.gen_range(2) == 0 {
                net.fault_link_slow(engine(&mut rng), port, until, 2 + rng.gen_range(3));
            } else {
                net.fault_hold_credits(
                    engine(&mut rng),
                    port,
                    1 + rng.gen_range(8) as usize,
                    until,
                );
            }
        }
        let mut drop_at: Vec<EngineId> = (0..rng.gen_range(3)).map(|_| engine(&mut rng)).collect();
        drop_at.sort_unstable();
        drop_at.dedup();
        for &e in &drop_at {
            net.fault_drop_next_ejection(e);
        }

        let mut sent: Vec<Sent> = Vec::new();
        let mut delivered: Vec<bool> = Vec::new();
        let mut now = Cycle(0);
        let send_window = 50 + rng.gen_range(250);
        while now.0 < 50_000 {
            if now.0 < send_window && rng.gen_range(3) == 0 {
                let (from, to) = (engine(&mut rng), engine(&mut rng));
                let id = sent.len() as u64;
                let payload: Vec<u8> = (0..rng.gen_range(200))
                    .map(|k| (id * 31 + k) as u8)
                    .collect();
                let m = Message::builder(MessageId(id), MessageKind::EthernetFrame)
                    .payload(Bytes::from(payload))
                    .build();
                sent.push(Sent {
                    from: net.coord_of(from),
                    to: net.coord_of(to),
                    flits: u64::from(Flit::flits_for(&m, cfg.width_bits)),
                    at: now,
                    payload: m.payload.clone(),
                });
                delivered.push(false);
                net.send(from, to, m, now);
            }
            net.tick(now);
            now = now.next();
            for e in 0..engines as u16 {
                if let Some(m) = net.poll_ejected(EngineId(e), now) {
                    let s = &sent[m.id.0 as usize];
                    assert_eq!(
                        net.coord_of(EngineId(e)),
                        s.to,
                        "delivered to the wrong tile"
                    );
                    assert!(
                        !std::mem::replace(&mut delivered[m.id.0 as usize], true),
                        "delivered twice"
                    );
                    assert_eq!(&m.payload, &s.payload);
                    assert!(now.since(s.at).count() >= u64::from(s.from.distance(s.to)));
                }
            }
            assert_eq!(net.is_quiescent(), net.holds_nothing());
            if now.0 >= send_window && now > faults_end && net.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent(), "mesh never drained");

        let arrived = delivered.iter().filter(|&&d| d).count() as u64;
        assert_eq!(arrived + net.lost_messages(), sent.len() as u64);
        assert_eq!(net.stats().delivered_messages, arrived);
        assert_eq!(net.stats().latency.count(), arrived);
        assert!(net.lost_messages() <= drop_at.len() as u64);
        let hops: u64 = sent
            .iter()
            .map(|s| s.flits * (u64::from(s.from.distance(s.to)) + 1))
            .sum();
        assert_eq!(net.total_flit_hops(), hops);

        // Every credit is home again, except the Local credits the
        // drops leaked.
        let mut leaked = 0;
        for r in &net.routers {
            for &p in &PortDir::ALL {
                let missing = r.link_capacity(p).unwrap_or(0) - r.credits(p);
                if missing > 0 {
                    let victim = net
                        .placement
                        .engine_at(r.coord())
                        .expect("row-major placement");
                    assert!(p == PortDir::Local && drop_at.contains(&victim));
                    assert_eq!(missing, 1);
                    leaked += 1;
                }
            }
        }
        assert_eq!(leaked, net.leaked_credits());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn any_mesh_delivers_conserves_hops_and_returns_credits(
            w in 3u8..=6,
            h in 3u8..=6,
            wide in proptest::any::<bool>(),
            input_buffer_flits in 2usize..=8,
            seed in proptest::any::<u64>(),
        ) {
            check_mesh(w, h, if wide { 128 } else { 64 }, input_buffer_flits, seed);
        }
    }
}
