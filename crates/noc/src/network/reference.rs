//! The flit-at-a-time mesh that worms replaced, kept as the oracle of a
//! lock-step test.
//!
//! [`RefRouter`] is the previous router verbatim — one 8-byte
//! [`FlitHandle`] per buffered flit, every router planned every cycle,
//! `commit_pop` per flit-hop — minus the accessors nothing here calls,
//! and [`RefMesh`] the previous `MeshNetwork::{send, tick,
//! poll_ejected_at}` verbatim with the fault drivers they call, minus
//! the tracer (a traced mesh keeps no segment, so tracing adds nothing
//! to check). The proptest below drives both with one stream of random
//! sends, fault windows, ejection drops and ejection polls, and after
//! every cycle compares a canonical snapshot of each tile — every
//! input's flits in order, credits, owners, round-robin pointers, the
//! ejection buffer and the source queue — plus the messages delivered,
//! the network counters and `total_flit_hops`, naming the first cycle
//! and tile that differ. Two more glide the worm mesh through random
//! prefixes of the windows its hint opens while `RefMesh` steps the same
//! cycles, the second under a NIC's pattern of sends, polls, forced
//! steps, unpolled destinations, fault arrivals and readers of the
//! buffers. Gliders keep their plan until their tails are polled and
//! leave the routers as they were meanwhile, so those two compare every
//! poll, the counters, every tile's source and ejection depths and the
//! ejection-pending bits on every cycle; at a tail's poll that writes
//! one glider back, that glider's route and ejection buffer; and the
//! whole snapshot whenever no glider is left (at the write-back of the
//! last, whatever triggered it, and after a reader's). (`RefMesh` counts
//! `active_cycles` too; nothing else is added to the verbatim copy.)

use bytes::Bytes;
use packet::{MessageId, MessageKind};
use proptest::prelude::*;
use sim_core::rng::SimRng;

use super::glide::MAX_GLIDERS;
use super::*;

/// `in_route` value of an input that holds no wormhole.
const NO_PORT: u8 = u8::MAX;

/// Next port index in round-robin order.
#[inline]
fn next_port(i: usize) -> u8 {
    if i + 1 == PortDir::COUNT {
        0
    } else {
        i as u8 + 1
    }
}

/// Narrows a configured buffer size to the router's `u16` counters.
fn counter(flits: usize, what: &str) -> u16 {
    u16::try_from(flits).unwrap_or_else(|_| {
        panic!(
            "{what} = {flits} flits exceeds the router's 16-bit counters \
             (max {}; lint PV102)",
            u16::MAX
        )
    })
}

/// The wormhole router at one tile.
///
/// Input FIFOs and credit counters are stored flat — one contiguous
/// ring of 8-byte [`FlitHandle`]s for all five inputs and narrow
/// per-port count arrays — so a router is under two cache lines of
/// state plus `40 × input_buffer_flits` bytes of ring, and a whole 6×6
/// mesh (≈14 KB) lives in L1. The mesh plans and commits every
/// non-idle router every cycle, so router state is the hottest data in
/// the simulator (see `docs/PERF.md`).
#[derive(Debug)]
pub struct RefRouter {
    /// Handle storage for all five input FIFOs: input `i` is a ring
    /// buffer over `buf[i * cap .. (i + 1) * cap]`.
    buf: Box<[FlitHandle]>,
    /// Flits forwarded (any output) over the router's lifetime.
    forwarded: u64,
    coord: Coord,
    topology: Topology,
    /// Capacity of each input FIFO, in flits.
    cap: u16,
    /// Ring head (index of the oldest flit) per input, relative to the
    /// input's slice of `buf`.
    head: [u16; PortDir::COUNT],
    /// Current occupancy per input.
    len: [u16; PortDir::COUNT],
    /// Credits toward each downstream buffer per output port.
    credit: [u16; PortDir::COUNT],
    /// Initial (maximum) credit count per output; `0` where no link
    /// exists (mesh edge) — a real link always has a non-zero buffer
    /// (lint PV102).
    credit_init: [u16; PortDir::COUNT],
    /// Wormhole ownership, seen from the input: the output held by the
    /// message currently entering on input `i` (set when its head wins
    /// arbitration, cleared when its tail is granted), or [`NO_PORT`].
    in_route: [u8; PortDir::COUNT],
    /// Round-robin pointer per output port.
    rr: [u8; PortDir::COUNT],
    /// Bit `i` set: input FIFO `i` holds at least one flit.
    nonempty: u8,
    /// Wormhole ownership, seen from the output: bit `o` set while some
    /// input's `in_route` is `o`.
    owned: u8,
    /// Fault injection: outputs masked off this cycle (link-slowdown
    /// faults). A blocked output behaves exactly like one with no
    /// credits — traffic wanting it stalls, credits are conserved.
    blocked: u8,
}

impl RefRouter {
    /// Builds the router for tile `coord` of `topology`.
    ///
    /// # Panics
    /// Panics if `config.input_buffer_flits` is zero — a zero-capacity
    /// input FIFO can never make progress — or if either buffer size
    /// exceeds `u16::MAX` flits, the range of the router's occupancy
    /// and credit counters (both lint PV102).
    #[must_use]
    pub fn new(coord: Coord, topology: Topology, config: RouterConfig) -> RefRouter {
        assert!(config.input_buffer_flits > 0, "zero-capacity input FIFO");
        let cap = counter(config.input_buffer_flits, "input_buffer_flits");
        let eject = counter(config.ejection_buffer_flits, "ejection_buffer_flits");
        let empty = FlitHandle {
            slot: u32::MAX,
            dest: coord,
            kind: FlitKind::HeadTail,
        };
        let mut credit_init = [0u16; PortDir::COUNT];
        for (p, init) in credit_init.iter_mut().enumerate() {
            *init = match PortDir::ALL[p].direction() {
                Some(d) => match topology.neighbor(coord, d) {
                    Some(_) => cap,
                    None => 0,
                },
                None => eject,
            };
        }
        RefRouter {
            buf: vec![empty; usize::from(cap) * PortDir::COUNT].into_boxed_slice(),
            forwarded: 0,
            coord,
            topology,
            cap,
            head: [0; PortDir::COUNT],
            len: [0; PortDir::COUNT],
            credit: credit_init,
            credit_init,
            in_route: [NO_PORT; PortDir::COUNT],
            rr: [0; PortDir::COUNT],
            nonempty: 0,
            owned: 0,
            blocked: 0,
        }
    }

    /// Oldest flit queued on input `i` (which must be non-empty).
    #[inline]
    fn front(&self, i: usize) -> FlitHandle {
        debug_assert!(self.len[i] > 0, "front of an empty input");
        self.buf[i * usize::from(self.cap) + usize::from(self.head[i])]
    }

    /// Fault injection: masks output `port` on (`true`) or off. While
    /// masked the output stalls as if creditless; the network's
    /// link-slowdown driver toggles this per cycle to model a link
    /// running at a fraction of nominal bandwidth.
    pub fn set_fault_blocked(&mut self, port: PortDir, blocked: bool) {
        let bit = 1 << port.index();
        if blocked {
            self.blocked |= bit;
        } else {
            self.blocked &= !bit;
        }
    }

    /// Fault injection: confiscates up to `n` credits from output
    /// `port`, returning how many were actually taken (0 on a port
    /// with no link). The caller must eventually hand them back via
    /// [`RefRouter::fault_return_credits`] or the output is permanently
    /// throttled.
    pub fn fault_take_credits(&mut self, port: PortDir, n: usize) -> usize {
        let p = port.index();
        if self.credit_init[p] == 0 {
            return 0;
        }
        let taken = self.credit[p].min(u16::try_from(n).unwrap_or(u16::MAX));
        self.credit[p] -= taken;
        usize::from(taken)
    }

    /// Fault injection: returns `n` previously confiscated credits to
    /// output `port` (see [`RefRouter::fault_take_credits`]).
    ///
    /// # Panics
    /// Panics if `port` has no link or the refill would exceed the
    /// buffer capacity — returning credits that were never taken is a
    /// fault-driver bug, not a modelled failure.
    pub fn fault_return_credits(&mut self, port: PortDir, n: usize) {
        let p = port.index();
        assert!(
            self.credit_init[p] > 0,
            "credit return on a port with no link"
        );
        assert!(
            n <= usize::from(self.credit_init[p] - self.credit[p]),
            "credit overflow: refill beyond initial {}",
            self.credit_init[p]
        );
        self.credit[p] += n as u16;
    }

    /// Lifetime flits forwarded through any output.
    #[must_use]
    pub fn flits_forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Space left in the input FIFO on `port` (the network uses the
    /// Local port's space to draw from the tile's source queue).
    #[must_use]
    pub fn input_space(&self, port: PortDir) -> usize {
        usize::from(self.cap - self.len[port.index()])
    }

    /// Delivers a flit into the input FIFO on `port`.
    ///
    /// # Panics
    /// Panics if the FIFO is full — with credit flow control a delivery
    /// into a full buffer is a protocol violation, not backpressure.
    #[inline]
    pub fn accept(&mut self, port: PortDir, flit: FlitHandle) {
        let i = port.index();
        let cap = usize::from(self.cap);
        if self.len[i] >= self.cap {
            panic!(
                "router {}: input overrun on {:?} (credit protocol violated)",
                self.coord, port
            );
        }
        // Conditional wrap instead of `%`: `cap` is a runtime value, so
        // a modulo here would be a hardware divide on the hottest path.
        let mut off = usize::from(self.head[i]) + usize::from(self.len[i]);
        if off >= cap {
            off -= cap;
        }
        self.buf[i * cap + off] = flit;
        self.len[i] += 1;
        self.nonempty |= 1 << i;
    }

    /// Returns one credit for the downstream buffer behind `port`
    /// (called by the network when the neighbor drains a flit we sent,
    /// or when the tile pops a flit from its ejection buffer).
    ///
    /// # Panics
    /// Panics if `port` has no link, or if the refill would exceed the
    /// downstream buffer's capacity — a phantom credit means the flow
    /// control protocol double-counted a drain.
    #[inline]
    pub fn refill_credit(&mut self, port: PortDir) {
        let p = port.index();
        assert!(
            self.credit_init[p] > 0,
            "credit refill on a port with no link"
        );
        assert!(
            self.credit[p] < self.credit_init[p],
            "credit overflow: refill beyond initial {}",
            self.credit_init[p]
        );
        self.credit[p] += 1;
    }

    /// The output port a flit bound for tile `dest` leaves through.
    #[inline]
    fn route(&self, dest: Coord) -> usize {
        match self.topology.route_xy(self.coord, dest) {
            Some(d) => PortDir::from_direction(d).index(),
            None => PortDir::Local.index(),
        }
    }

    /// True when no flit is buffered in any input FIFO — the router
    /// cannot do anything until a neighbor or the local source delivers
    /// one.
    #[inline]
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.nonempty == 0
    }

    /// Pops the flit a [`RefRouter::plan`] winner promised for this cycle
    /// (commit phase; the network moves it downstream).
    ///
    /// # Panics
    /// Panics if input `i` is empty — the plan staged a flit that is no
    /// longer there, which is a commit-ordering bug.
    #[inline]
    pub fn commit_pop(&mut self, i: usize) -> FlitHandle {
        assert!(self.len[i] > 0, "planned winner input non-empty");
        let flit = self.front(i);
        self.head[i] = if self.head[i] + 1 == self.cap {
            0
        } else {
            self.head[i] + 1
        };
        self.len[i] -= 1;
        if self.len[i] == 0 {
            self.nonempty &= !(1 << i);
        }
        flit
    }

    /// True when output `o` holds a credit and is not fault-masked.
    #[inline]
    fn can_send(&self, o: usize) -> bool {
        self.credit[o] > 0 && self.blocked & (1 << o) == 0
    }

    /// Grants output `o` to the front flit of input `i`: one credit
    /// spent, wormhole ownership opened by a head and closed by a tail.
    #[inline]
    fn grant(&mut self, plan: &mut RoutePlan, o: usize, i: usize, kind: FlitKind) {
        if kind.is_tail() {
            self.in_route[i] = NO_PORT;
            self.owned &= !(1 << o);
            // Advance round-robin past the input that just finished.
            self.rr[o] = next_port(i);
        } else {
            self.in_route[i] = o as u8;
            self.owned |= 1 << o;
        }
        self.credit[o] -= 1;
        self.forwarded += 1;
        plan.winner[o] = i as u8;
        plan.granted |= 1 << o;
    }

    /// Phase 1: switch allocation for one cycle, by reference.
    ///
    /// Decides which input (if any) traverses each output port this
    /// cycle, updating wormhole ownership, round-robin pointers, and
    /// output credits, and returns the winners. Flits are *not* popped
    /// here — the commit phase pops each winner exactly once via
    /// [`RefRouter::commit_pop`], so a flit is moved a single time per
    /// hop. Reads only pre-tick input state, preserving the two-phase
    /// discipline.
    ///
    /// The allocation is input-centric, because a router holds a flit
    /// or two, not twenty-five input × output candidates. Every front
    /// flit wants exactly one output, so no input can be claimed twice
    /// and the two passes below decide exactly what an output-by-output
    /// scan would:
    ///
    /// 1. over the non-empty inputs: a body/tail front follows the
    ///    wormhole its head opened (`in_route`), needing only a credit
    ///    and an unmasked link; a head front registers in `want[o]`;
    /// 2. over the outputs some head wants: round-robin arbitration
    ///    from `rr[o]`, skipping outputs that are owned, already
    ///    granted in pass 1, link-less, creditless or fault-masked.
    ///
    /// The `stalled` flags fall out of the same passes, so the traced
    /// and untraced runs share one planner.
    pub fn plan(&mut self) -> RoutePlan {
        // Runtime shadow of the static credit lints: a credit counter
        // must stay within [0, buffer capacity] (capacity 0 would make
        // the link permanently mute — panic-verify PV102; the capacity
        // bound itself is PV103's sizing model). Every transition is
        // asserted at its call site; this checks the aggregate per
        // cycle.
        debug_assert!(
            self.credit
                .iter()
                .zip(self.credit_init.iter())
                .all(|(&c, &init)| c <= init),
            "router {}: credit counter outside [0, buffer capacity] \
             (see lints PV102/PV103)",
            self.coord
        );
        let mut plan = RoutePlan::default();
        // want[o]: bitmask of inputs whose front flit is a *head*
        // routing to output o; `wanted` has bit o set where want[o] is
        // non-zero.
        let mut want = [0u8; PortDir::COUNT];
        let mut wanted = 0u8;
        let mut inputs = self.nonempty;
        while inputs != 0 {
            let i = inputs.trailing_zeros() as usize;
            inputs &= inputs - 1;
            let front = self.front(i);
            if front.kind.is_head() {
                let o = self.route(front.dest);
                want[o] |= 1 << i;
                wanted |= 1 << o;
                continue;
            }
            // Wormhole continuation: pops are deferred to the commit
            // phase and a message's flits arrive contiguously, so the
            // front is the next flit of the message whose head set
            // `in_route[i]`.
            let o = usize::from(self.in_route[i]);
            debug_assert!(
                o < PortDir::COUNT && self.owned & (1 << o) != 0,
                "body flit without a wormhole"
            );
            if self.can_send(o) {
                self.grant(&mut plan, o, i, front.kind);
            } else {
                plan.stalled |= 1 << o;
            }
        }
        // An owned output idles while its owner's input runs dry, and a
        // tail granted above frees its output only from the next cycle
        // (one flit per output per cycle).
        let mut outputs = wanted & !(self.owned | plan.granted);
        while outputs != 0 {
            let o = outputs.trailing_zeros() as usize;
            outputs &= outputs - 1;
            // No link: this output idles.
            if self.credit_init[o] == 0 {
                continue;
            }
            if !self.can_send(o) {
                plan.stalled |= 1 << o;
                continue;
            }
            // The 5-bit rotate finds the first candidate at or after
            // rr[o] without a scan.
            let b = u32::from(want[o]);
            let p = u32::from(self.rr[o]);
            let rot = ((b >> p) | (b << (PortDir::COUNT as u32 - p))) & ((1 << PortDir::COUNT) - 1);
            let i = (p + rot.trailing_zeros()) as usize % PortDir::COUNT;
            let kind = self.front(i).kind;
            self.grant(&mut plan, o, i, kind);
        }
        plan
    }
}

/// The previous network state, with one handle per queued flit.
#[derive(Debug)]
struct RefMesh {
    width_bits: u64,
    lut: RouteLut,
    neighbor_idx: Vec<[u16; PortDir::COUNT]>,
    routers: Vec<RefRouter>,
    source: Vec<VecDeque<FlitHandle>>,
    ejection: Vec<VecDeque<FlitHandle>>,
    slab: Vec<Option<InFlight>>,
    free_slots: Vec<u32>,
    stats: NetworkStats,
    faults: Option<Box<NetFaults>>,
    plans: Vec<RoutePlan>,
    active: Vec<u64>,
    planned: Vec<u64>,
    source_pending: Vec<u64>,
    ejection_pending: Vec<u64>,
    resident_flits: u64,
    /// Ticks that found a flit resident (the one counter added to the
    /// verbatim copy, so that a glide's `active_cycles` has a twin).
    active_cycles: u64,
}

impl RefMesh {
    /// The oracle twin of a freshly built `net`.
    fn beside(net: &MeshNetwork) -> RefMesh {
        let config = &net.config;
        let n = config.topology.nodes();
        let words = n.div_ceil(64);
        RefMesh {
            width_bits: config.width_bits,
            lut: net.lut.clone(),
            neighbor_idx: net.neighbor_idx.clone(),
            routers: config
                .topology
                .coords()
                .map(|c| RefRouter::new(c, config.topology, config.router))
                .collect(),
            source: (0..n).map(|_| VecDeque::new()).collect(),
            ejection: (0..n).map(|_| VecDeque::new()).collect(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            stats: NetworkStats::new(),
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

    fn tile_of(&self, engine: EngineId) -> usize {
        self.lut.tile_of(engine).expect("placed")
    }

    fn faults_mut(&mut self) -> &mut NetFaults {
        self.faults.get_or_insert_with(Box::default)
    }

    fn fault_drop_next_ejection(&mut self, engine: EngineId) {
        let tile = self.tile_of(engine);
        *self.faults_mut().drop_armed.entry(tile).or_insert(0) += 1;
    }

    fn fault_link_slow(&mut self, engine: EngineId, port: PortDir, until: Cycle, period: u64) {
        let tile = self.tile_of(engine);
        self.faults_mut().slow.push(SlowLink {
            tile,
            port,
            until,
            period,
        });
    }

    fn fault_hold_credits(
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

    fn drive_faults(&mut self, now: Cycle) {
        let Some(mut faults) = self.faults.take() else {
            return;
        };
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

    fn send(&mut self, from: EngineId, to: EngineId, msg: Message, now: Cycle) {
        let tile = self.tile_of(from);
        let dest = self.lut.coord_of(to).expect("placed");
        let total = Flit::flits_for(&msg, self.width_bits);
        let slot = self.slab_insert(InFlight { msg, sent: now });
        self.stats.injected_messages += 1;
        self.source[tile].extend((0..total).map(|seq| FlitHandle {
            slot,
            dest,
            kind: FlitKind::at(seq, total),
        }));
        self.resident_flits += u64::from(total);
        self.source_pending[tile / 64] |= 1 << (tile % 64);
    }

    fn slab_insert(&mut self, entry: InFlight) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            self.slab[slot as usize] = Some(entry);
            return slot;
        }
        let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 messages in flight");
        self.slab.push(Some(entry));
        self.free_slots.reserve(self.slab.len());
        slot
    }

    fn slab_remove(&mut self, slot: u32) -> InFlight {
        let entry = self.slab[slot as usize]
            .take()
            .expect("tail flit names a live slab slot");
        self.free_slots.push(slot);
        entry
    }

    fn poll_ejected_at(&mut self, tile: usize, now: Cycle) -> Option<Message> {
        let flit = self.ejection[tile].pop_front()?;
        self.resident_flits -= 1;
        if self.ejection[tile].is_empty() {
            self.ejection_pending[tile / 64] &= !(1 << (tile % 64));
        }
        if !flit.kind.is_tail() {
            self.routers[tile].refill_credit(PortDir::Local);
            return None;
        }
        let InFlight { msg, sent } = self.slab_remove(flit.slot);
        if let Some(faults) = self.faults.as_deref_mut() {
            if let Some(armed) = faults.drop_armed.get_mut(&tile) {
                if *armed > 0 {
                    *armed -= 1;
                    faults.lost_messages += 1;
                    faults.leaked_credits += 1;
                    *faults.lost_by_tenant.entry(msg.tenant).or_insert(0) += 1;
                    return None;
                }
            }
        }
        self.routers[tile].refill_credit(PortDir::Local);
        let dur = now.since(sent);
        self.stats.latency.record(dur.count());
        self.stats.delivered_messages += 1;
        Some(msg)
    }

    fn tick(&mut self, now: Cycle) {
        if self.faults.is_some() {
            self.drive_faults(now);
        }
        self.active_cycles += u64::from(self.resident_flits > 0);
        for word in 0..self.source_pending.len() {
            for bit in set_bits(self.source_pending[word]) {
                let tile = word * 64 + bit;
                if self.routers[tile].input_space(PortDir::Local) > 0 {
                    let flit = self.source[tile].pop_front().expect("non-empty");
                    self.routers[tile].accept(PortDir::Local, flit);
                    self.active[word] |= 1 << bit;
                    if self.source[tile].is_empty() {
                        self.source_pending[word] &= !(1 << bit);
                    }
                }
            }
        }
        self.planned.copy_from_slice(&self.active);
        for word in 0..self.planned.len() {
            for bit in set_bits(self.planned[word]) {
                let tile = word * 64 + bit;
                self.plans[tile] = self.routers[tile].plan();
            }
        }
        for word in 0..self.planned.len() {
            for bit in set_bits(self.planned[word]) {
                let tile = word * 64 + bit;
                let plan = self.plans[tile];
                for o in set_bits(u64::from(plan.granted)) {
                    let i = usize::from(plan.winner[o]);
                    let flit = self.routers[tile].commit_pop(i);
                    if i != PortDir::Local.index() {
                        let up = self.neighbor_idx[tile][i];
                        debug_assert_ne!(up, NO_TILE, "credit from a port with no link");
                        self.routers[usize::from(up)].refill_credit(PortDir::ALL[i].opposite());
                    }
                    if o == PortDir::Local.index() {
                        self.stats.delivered_flits += 1;
                        self.ejection[tile].push_back(flit);
                        self.ejection_pending[word] |= 1 << bit;
                    } else {
                        let down = self.neighbor_idx[tile][o];
                        debug_assert_ne!(down, NO_TILE, "granted flit toward a missing link");
                        let down = usize::from(down);
                        self.routers[down].accept(PortDir::ALL[o].opposite(), flit);
                        self.active[down / 64] |= 1 << (down % 64);
                    }
                }
                if self.routers[tile].is_idle() {
                    self.active[word] &= !(1 << bit);
                }
            }
        }
    }

    fn total_flit_hops(&self) -> u64 {
        self.routers.iter().map(RefRouter::flits_forwarded).sum()
    }

    /// Input `i`'s flits at `tile`, oldest first.
    fn queued(&self, tile: usize, i: usize) -> impl Iterator<Item = FlitHandle> + '_ {
        let r = &self.routers[tile];
        let cap = usize::from(r.cap);
        (0..usize::from(r.len[i])).map(move |k| {
            let mut off = usize::from(r.head[i]) + k;
            if off >= cap {
                off -= cap;
            }
            r.buf[i * cap + off]
        })
    }
}

/// What is left of a message in a source queue, flit by flit.
fn flits(run: &SourceRun) -> impl Iterator<Item = FlitHandle> {
    let mut run = *run;
    (0..run.left).map(move |_| run.pop())
}

/// The first way tile `t` of `net` differs from the oracle's, if any.
fn tile_diff(net: &MeshNetwork, old: &RefMesh, t: usize) -> Option<String> {
    let (new, r) = (&net.routers[t], &old.routers[t]);
    for i in 0..PortDir::COUNT {
        if !new.queued(i).eq(old.queued(t, i)) {
            let ours: Vec<_> = new.queued(i).collect();
            let theirs: Vec<_> = old.queued(t, i).collect();
            return Some(format!("input {i}: {ours:?} != {theirs:?}"));
        }
        let port = PortDir::ALL[i];
        let ours = (new.credits(port), new.in_route(i), new.rr(i));
        let theirs = (usize::from(r.credit[i]), r.in_route[i], r.rr[i]);
        if ours != theirs {
            return Some(format!(
                "port {i} (credit, owner, rr): {ours:?} != {theirs:?}"
            ));
        }
    }
    if new.nonempty() != r.nonempty {
        return Some(format!("nonempty {} != {}", new.nonempty(), r.nonempty));
    }
    if !net.ejection[t].iter().eq(old.ejection[t].iter()) {
        return Some(format!(
            "ejection {:?} != {:?}",
            net.ejection[t], old.ejection[t]
        ));
    }
    let ours = net.source[t].runs().flat_map(flits);
    if net.source[t].flits != old.source[t].len() || !ours.eq(old.source[t].iter().copied()) {
        return Some(format!(
            "source {:?} != {:?}",
            net.source[t].runs().collect::<Vec<_>>(),
            old.source[t]
        ));
    }
    None
}

/// The first way one route's FIFOs (each one's tile, input and output)
/// and the ejection buffer of tile `to` at its end differ from the
/// oracle's, if any: each FIFO's flits and owner, the credits and
/// round-robin pointer of the output it forwards through, and the
/// credits the first one's feeder holds for it. Another glider's route
/// shares none of these, so they are exact while it still glides.
fn route_diff(
    net: &MeshNetwork,
    old: &RefMesh,
    to: usize,
    fifos: &[(usize, usize, usize)],
) -> Option<String> {
    for (j, &(t, i, o)) in fifos.iter().enumerate() {
        let (new, r) = (&net.routers[t], &old.routers[t]);
        if !new.queued(i).eq(old.queued(t, i)) {
            let ours: Vec<_> = new.queued(i).collect();
            let theirs: Vec<_> = old.queued(t, i).collect();
            return Some(format!("tile {t} input {i}: {ours:?} != {theirs:?}"));
        }
        let ours = (new.in_route(i), new.credits(PortDir::ALL[o]), new.rr(o));
        let theirs = (r.in_route[i], usize::from(r.credit[o]), r.rr[o]);
        if ours != theirs {
            return Some(format!(
                "tile {t} input {i} output {o} (owner, credit, rr): {ours:?} != {theirs:?}"
            ));
        }
        if j == 0 && i != LOCAL {
            let (up, back) = (
                usize::from(net.neighbor_idx[t][i]),
                usize::from(OPPOSITE[i]),
            );
            let ours = net.routers[up].credits(PortDir::ALL[back]);
            let theirs = usize::from(old.routers[up].credit[back]);
            if ours != theirs {
                return Some(format!(
                    "tile {up} output {back} (feeder credit): {ours} != {theirs}"
                ));
            }
        }
    }
    if !net.ejection[to].iter().eq(old.ejection[to].iter()) {
        return Some(format!(
            "tile {to} ejection {:?} != {:?}",
            net.ejection[to], old.ejection[to]
        ));
    }
    None
}

/// Network-wide state that must agree on every cycle, gliders or not:
/// the exported counters, the resident flits, the ejection-pending bits
/// and every tile's source and ejection depths.
fn mesh_counters(net: &MeshNetwork) -> Vec<u64> {
    let mut counters = vec![
        net.stats.injected_messages,
        net.stats.delivered_messages,
        net.stats.delivered_flits,
        net.stats.latency.count(),
        net.resident_flits,
        net.total_flit_hops(),
        net.active_cycles,
        word(&net.ejection_pending),
    ];
    // The meshes here are placed row-major: engine `t` is tile `t`.
    for t in 0..net.routers.len() {
        let e = EngineId(t as u16);
        counters.extend([net.source_depth(e), net.ejection_depth(e)].map(|n| n as u64));
    }
    counters
}

fn ref_counters(old: &RefMesh) -> Vec<u64> {
    let mut counters = vec![
        old.stats.injected_messages,
        old.stats.delivered_messages,
        old.stats.delivered_flits,
        old.stats.latency.count(),
        old.resident_flits,
        old.total_flit_hops(),
        old.active_cycles,
        word(&old.ejection_pending),
    ];
    for t in 0..old.routers.len() {
        counters.extend([old.source[t].len(), old.ejection[t].len()].map(|n| n as u64));
    }
    counters
}

/// A mask folded into one word.
fn word(w: &[u64]) -> u64 {
    w.iter().fold(0u64, |h, &x| h.rotate_left(7) ^ x)
}

/// A random mesh and its oracle twin, driven by one stream of random
/// sends, fault windows and ejection drops.
struct Pair {
    net: MeshNetwork,
    old: RefMesh,
    topology: Topology,
    /// Sends happen before this cycle; every fault window has ended by
    /// `faults_end`.
    send_window: u64,
    faults_end: Cycle,
    /// Per-mille chance of one more send, again and again, each cycle,
    /// and how many messages a send is.
    load: u64,
    burst: u64,
    next_id: u64,
    /// Whether sends favour a source queue that holds a message already
    /// (see [`Pattern::Followers`]).
    follow: bool,
    tally: Tally,
}

/// What a follower run went through, for [`follower_runs_exercise_every_case`]:
/// followers admitted by a send into a gliding mesh and by a plan,
/// windows that end on a leader's last flit leaving its source, the
/// write-backs there and by any other trigger while followers waited,
/// and hints that glide with more followers than a glide takes gliders.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    by_send: u64,
    by_plan: u64,
    exit_windows: u64,
    at_exit: u64,
    early: u64,
    many: u64,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.by_send += o.by_send;
        self.by_plan += o.by_plan;
        self.exit_windows += o.exit_windows;
        self.at_exit += o.at_exit;
        self.early += o.early;
        self.many += o.many;
    }
}

impl Pair {
    /// 3×3 to 8×8, 64- or 128-bit channels, 2–16-flit input buffers;
    /// fault windows that end inside the send window (streaming and
    /// gliding wait for the last one), and at most one drop per tile on
    /// a few tiles (fewer than any tile's Local credits).
    fn new(rng: &mut SimRng) -> Pair {
        let topology = Topology::mesh(3 + rng.gen_range(6) as u8, 3 + rng.gen_range(6) as u8);
        let input_buffer_flits = 2 + rng.gen_range(15) as usize;
        let config = NetworkConfig {
            topology,
            width_bits: if rng.gen_range(2) == 0 { 64 } else { 128 },
            router: RouterConfig {
                input_buffer_flits,
                ejection_buffer_flits: 2 + rng.gen_range(2 * input_buffer_flits as u64) as usize,
            },
        };
        let mut net = MeshNetwork::new(config, Placement::row_major(topology));
        let mut old = RefMesh::beside(&net);
        let tiles = topology.nodes() as u64;
        let engine = |rng: &mut SimRng| EngineId(rng.gen_range(tiles) as u16);

        let send_window = 100 + rng.gen_range(600);
        let mut faults_end = Cycle(0);
        for _ in 0..rng.gen_range(5) {
            let until = Cycle(1 + rng.gen_range(send_window));
            faults_end = faults_end.max(until);
            let (e, port) = (engine(rng), PortDir::ALL[rng.gen_range(5) as usize]);
            if rng.gen_range(2) == 0 {
                let period = 2 + rng.gen_range(3);
                net.fault_link_slow(e, port, until, period);
                old.fault_link_slow(e, port, until, period);
            } else {
                let n = 1 + rng.gen_range(8) as usize;
                prop_assert_eq!(
                    net.fault_hold_credits(e, port, n, until),
                    old.fault_hold_credits(e, port, n, until)
                );
            }
        }
        let mut drops: Vec<EngineId> = (0..rng.gen_range(4)).map(|_| engine(rng)).collect();
        drops.sort_unstable();
        drops.dedup();
        for &e in &drops {
            net.fault_drop_next_ejection(e);
            old.fault_drop_next_ejection(e);
        }
        Pair {
            net,
            old,
            topology,
            send_window,
            faults_end,
            // Between a trickle and several messages a cycle.
            load: 10 * (1 + rng.gen_range(60)),
            burst: 1,
            next_id: 0,
            follow: false,
            tally: Tally::default(),
        }
    }

    fn tiles(&self) -> usize {
        self.topology.nodes()
    }

    /// This cycle's random sends, to both meshes.
    fn send(&mut self, rng: &mut SimRng, now: Cycle) {
        if now.0 >= self.send_window {
            return;
        }
        let tiles = self.tiles() as u64;
        while rng.gen_range(1000) < self.load {
            for _ in 0..self.burst {
                self.send_one(rng, now, tiles);
            }
        }
    }

    /// One random message, to both meshes. A follower run sends half
    /// of them from a source queue that holds a message already, half of
    /// those to that message's destination, and one send in sixteen is
    /// nine to twelve messages from one source.
    fn send_one(&mut self, rng: &mut SimRng, now: Cycle, tiles: u64) {
        let (mut from, mut to) = (rng.gen_range(tiles) as usize, rng.gen_range(tiles) as usize);
        let mut repeat = 1;
        if self.follow {
            let busy: Vec<usize> = (0..self.tiles())
                .filter(|&t| !self.old.source[t].is_empty())
                .collect();
            if !busy.is_empty() && rng.gen_range(2) == 0 {
                from = busy[rng.gen_range(busy.len() as u64) as usize];
                if rng.gen_range(2) == 0 {
                    to = self.topology.index(self.old.source[from][0].dest);
                }
            }
            if rng.gen_range(16) == 0 {
                repeat = 9 + rng.gen_range(4);
            }
        }
        for k in 0..repeat {
            if k > 0 {
                to = rng.gen_range(tiles) as usize;
            }
            let payload: Vec<u8> = (0..rng.gen_range(300)).map(|k| k as u8).collect();
            let msg = Message::builder(MessageId(self.next_id), MessageKind::EthernetFrame)
                .payload(Bytes::from(payload))
                .build();
            self.next_id += 1;
            let (gliding, followers) = (self.gliding(), self.net.followers());
            let (e, d) = (EngineId(from as u16), EngineId(to as u16));
            self.old.send(e, d, msg.clone(), now);
            self.net.send(e, d, msg, now);
            self.tally.by_send += u64::from(self.gliding() && self.net.followers() > followers);
            self.check_write_back(gliding, now, "a write-back at a send");
        }
    }

    /// Polls tile `t` of both meshes, which must deliver alike. A tail's
    /// poll that writes its glider back is checked there and then: that
    /// glider's route and ejection buffer, or everything if it was the
    /// last one.
    fn poll(&mut self, t: usize, now: Cycle) {
        let gliding = self.gliding();
        let (followers, exit) = (self.net.followers(), self.net.source_exit());
        let route = self.net.glider_route(t);
        let ours = self.net.poll_ejected_at(t, now).map(|m| m.id);
        let theirs = self.old.poll_ejected_at(t, now).map(|m| m.id);
        prop_assert_eq!(ours, theirs, "cycle {} tile {}: delivered", now.0, t);
        let written_back = self.gliding() && self.net.glider_route(t).is_none();
        if let Some(fifos) = route.filter(|_| written_back) {
            if let Some(diff) = route_diff(&self.net, &self.old, t, &fifos) {
                panic!(
                    "a tail's write-back at cycle {}, bound for tile {}: {}",
                    now.0, t, diff
                );
            }
        }
        self.tally_write_back(followers, exit);
        self.check_write_back(gliding, now, "a write-back at a poll");
    }

    /// Tallies a write-back of a mesh whose followers were `followers`,
    /// its soonest source exit `exit` cycles out, before the call that
    /// just ran: at the exit, or early.
    fn tally_write_back(&mut self, followers: usize, exit: Option<u32>) {
        if followers > 0 && !self.gliding() {
            if exit == Some(0) {
                self.tally.at_exit += 1;
            } else {
                self.tally.early += 1;
            }
        }
    }

    /// True while the worm mesh holds gliders.
    fn gliding(&self) -> bool {
        self.net.plan.borrow().any()
    }

    /// [`Pair::check`] when the worm mesh held gliders before the call
    /// that just ran and holds none now: it wrote the last of them back.
    fn check_write_back(&self, gliding: bool, now: Cycle, what: &str) {
        if gliding && !self.gliding() {
            self.check(now, what);
        }
    }

    /// Everything that must agree once the cycles before `now` have run,
    /// the first difference named by cycle and tile: every buffer,
    /// credit, owner and round-robin pointer, and the masks, so no
    /// glider may be left unwritten.
    fn check(&self, now: Cycle, what: &str) {
        assert!(!self.gliding(), "a check of a gliding mesh");
        prop_assert_eq!(
            [word(&self.net.active), word(&self.net.source_pending)],
            [word(&self.old.active), word(&self.old.source_pending)],
            "{} at cycle {}: active or source masks",
            what,
            now.0
        );
        self.check_counters(now, what);
        for t in 0..self.tiles() {
            if let Some(diff) = tile_diff(&self.net, &self.old, t) {
                panic!(
                    "first divergence {what} at cycle {} tile {t} {}: {diff}",
                    now.0,
                    self.topology.coord(t)
                );
            }
        }
    }

    /// What must agree on every cycle, gliders or not.
    fn check_counters(&self, now: Cycle, what: &str) {
        prop_assert_eq!(
            mesh_counters(&self.net),
            ref_counters(&self.old),
            "{} at cycle {}: counters or ejection-pending bits",
            what,
            now.0
        );
        prop_assert_eq!(
            self.net.lost_messages(),
            self.old.faults.as_ref().map_or(0, |f| f.lost_messages)
        );
    }

    /// [`Pair::check`] once the mesh holds no glider, or after writing
    /// them all back (as any reader of the buffers does).
    fn inspect(&mut self, now: Cycle, what: &str) {
        self.net.settle();
        self.check(now, what);
    }

    /// Past the send window and every fault, with nothing left.
    fn drained(&self, now: Cycle) -> bool {
        now.0 >= self.send_window && now > self.faults_end && self.net.is_quiescent()
    }
}

/// One lock-step run; returns the flit-hops the mesh streamed.
fn lockstep(seed: u64) -> u64 {
    let mut rng = SimRng::new(seed);
    let mut pair = Pair::new(&mut rng);
    // A receiver that polls each tile on some cycles only, so ejection
    // buffers fill and Local credits run out.
    let poll = 3 + rng.gen_range(8);
    let mut now = Cycle(0);
    while now.0 < 40_000 {
        pair.send(&mut rng, now);
        pair.net.tick(now);
        pair.old.tick(now);
        now = now.next();
        for t in 0..pair.tiles() {
            if rng.gen_range(10) < poll {
                pair.poll(t, now);
            }
        }
        pair.inspect(now, "stepped");
        if pair.drained(now) {
            break;
        }
    }
    prop_assert!(pair.net.is_quiescent(), "mesh never drained");
    pair.net.streamed_flit_hops()
}

/// How [`glide_lockstep`] drives the worm mesh between its hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    /// Glide a random prefix of every window the hint opens.
    Windows,
    /// A NIC's pattern: besides the windows, forced steps inside a
    /// glider's life (a window cut short, or none taken, as at a
    /// `drive` re-entry), tiles that stop polling while they hold a
    /// flit, slow links and credit holds that arrive while the mesh
    /// glides, and readers of the buffers.
    Nic,
    /// The NIC's pattern with sends that queue behind a message in a
    /// source queue, to its destination or another, and bursts of more
    /// followers than a glide takes gliders; half the windows are taken
    /// whole, so many end on a leader's last flit leaving its source.
    Followers,
}

/// One glide run; returns the flit-hops the mesh glided, and what its
/// followers went through.
///
/// Three runs in four offer a sparse load (a send every 20–200 executed
/// cycles, of one to three messages whose routes may cross) for
/// thousands of cycles after the fault windows close, which is where
/// glides are long. Each executed cycle sends, polls every tile whose
/// ejection-pending bit is set that a random mask polls (and each other
/// one at random), as a NIC's ejection pass does, and ticks both meshes;
/// the counters and the ejection-pending bits must agree after it, and
/// whenever the worm mesh holds no glider, so must every buffer,
/// credit, owner and round-robin pointer. Wherever the worm mesh's hint
/// for that mask then passes the next cycle, the worm mesh glides a
/// random prefix of the window while the oracle steps the same cycles
/// polling the mask's tiles, and no other; where the hint is `None`
/// (nothing can move) it glides up to 64 cycles — over a quiescent mesh
/// only now and then, which lets the fault windows expire inside a
/// glide and still keeps the sends coming. Inside a window no oracle
/// poll may deliver: a tail polled there is a late hint.
fn glide_lockstep(seed: u64, pattern: Pattern) -> (u64, Tally) {
    let mut rng = SimRng::new(seed);
    let mut pair = Pair::new(&mut rng);
    if rng.gen_range(4) != 0 {
        pair.load = 5 + rng.gen_range(45);
        pair.burst = 1 + rng.gen_range(3);
        pair.send_window += 2000 + rng.gen_range(4000);
    }
    let nic = pattern != Pattern::Windows;
    pair.follow = pattern == Pattern::Followers;
    let mut mask = vec![false; pair.tiles()];
    let mut remask_at = Cycle(0);
    let mut now = Cycle(0);
    while now.0 < 40_000 {
        if now >= remask_at {
            // Mostly polled: a tile that is not stops every glide toward
            // it, and a glide past one that is sits idle there.
            mask.iter_mut().for_each(|m| *m = rng.gen_range(4) != 0);
            let hold = if nic {
                5 + rng.gen_range(60)
            } else {
                50 + rng.gen_range(300)
            };
            remask_at = Cycle(now.0 + hold);
        }
        if nic && now.0 < pair.send_window && rng.gen_range(300) == 0 {
            pair.fault(&mut rng, now);
        }
        let polled = |t: usize| mask[t];
        pair.send(&mut rng, now);
        for (t, &polled) in mask.iter().enumerate() {
            // A NIC polls only tiles whose ejection-pending bit is set.
            let pending = pair.net.ejection_pending_word(t / 64) & (1 << (t % 64)) != 0;
            if (pending || !nic) && (polled || rng.gen_range(2) == 0) {
                pair.poll(t, now);
            }
        }
        let (followers, exit) = (pair.net.followers(), pair.net.source_exit());
        pair.net.tick(now);
        pair.old.tick(now);
        pair.tally_write_back(followers, exit);
        let next = now.next();
        pair.check_counters(next, "stepped");
        if !pair.gliding() {
            pair.check(next, "stepped");
        } else if nic && rng.gen_range(16) == 0 {
            let followers = pair.net.followers();
            pair.inspect(next, "inspecting a gliding mesh");
            pair.tally_write_back(followers, None);
        }
        let gliding = pair.gliding();
        let hint = pair.net.next_activity(now, polled);
        if !gliding && pair.gliding() && pair.net.followers() > 0 {
            pair.tally.by_plan += 1;
        }
        pair.tally.many += u64::from(pair.net.followers() > MAX_GLIDERS);
        let to = match hint {
            // A forced step: the window is not taken at all.
            Some(_) if nic && rng.gen_range(4) == 0 => next,
            Some(hint) if pair.follow && rng.gen_range(2) == 0 => hint,
            Some(hint) => Cycle(next.0 + rng.gen_range(hint.0 - now.0)),
            None if pair.net.is_quiescent() && rng.gen_range(4) != 0 => next,
            None => Cycle(next.0 + rng.gen_range(65)),
        };
        if to > next {
            let exit = pair.net.source_exit().map(|e| next.0 + u64::from(e));
            pair.tally.exit_windows += u64::from(exit == Some(to.0));
            pair.net.glide(next, to, polled);
            for c in (next.0..to.0).map(Cycle) {
                for t in (0..pair.tiles()).filter(|&t| mask[t]) {
                    let got = pair.old.poll_ejected_at(t, c).map(|m| m.id);
                    prop_assert_eq!(got, None, "a tail polled at cycle {} tile {}", c.0, t);
                }
                pair.old.tick(c);
            }
            pair.check_counters(to, "landing a glide");
            if !pair.gliding() {
                pair.check(to, "landing a glide");
            }
        }
        now = to;
        if pair.drained(now) {
            break;
        }
    }
    prop_assert!(pair.net.is_quiescent(), "mesh never drained");
    (pair.net.glided_flit_hops(), pair.tally)
}

impl Pair {
    /// A slow link or a credit hold, arriving now in both meshes and
    /// ending inside the send window.
    fn fault(&mut self, rng: &mut SimRng, now: Cycle) {
        let gliding = self.gliding();
        let followers = self.net.followers();
        let tiles = self.tiles() as u64;
        let until = Cycle(now.0 + 1 + rng.gen_range(200));
        self.faults_end = self.faults_end.max(until);
        let (e, port) = (
            EngineId(rng.gen_range(tiles) as u16),
            PortDir::ALL[rng.gen_range(5) as usize],
        );
        if rng.gen_range(2) == 0 {
            let period = 2 + rng.gen_range(3);
            self.net.fault_link_slow(e, port, until, period);
            self.old.fault_link_slow(e, port, until, period);
        } else {
            let n = 1 + rng.gen_range(8) as usize;
            prop_assert_eq!(
                self.net.fault_hold_credits(e, port, n, until),
                self.old.fault_hold_credits(e, port, n, until)
            );
        }
        self.tally_write_back(followers, None);
        self.check_write_back(gliding, now, "a write-back at a fault");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cycle after cycle, the worm mesh and the flit-at-a-time mesh it
    /// replaced hold the same flits in the same order in every buffer,
    /// the same credits, owners and round-robin pointers, deliver the
    /// same messages on the same cycles and count the same hops — on
    /// 3×3 to 8×8 meshes, 64- and 128-bit channels, 2–16-flit buffers,
    /// any load, with slow links, credit holds and ejection drops.
    #[test]
    fn worm_mesh_matches_the_flit_mesh_in_lock_step(seed in any::<u64>()) {
        lockstep(seed);
    }

    /// The same, with the worm mesh gliding wherever its hint allows:
    /// every poll delivers alike and the counters agree on every cycle,
    /// the buffers, credits, owners, round-robin pointers and source
    /// queues whenever no glider is left, and no tail is polled inside a
    /// window.
    #[test]
    fn a_glide_lands_where_the_flit_mesh_steps_to(seed in any::<u64>()) {
        glide_lockstep(seed, Pattern::Windows);
    }

    /// The same under a NIC's pattern: gliders that keep their plan
    /// through sends on clear and on meeting routes, forced steps,
    /// destinations that stop polling, fault windows that open while
    /// the mesh glides, and readers that write them back.
    #[test]
    fn gliders_keep_their_plan_under_a_nics_pattern(seed in any::<u64>()) {
        glide_lockstep(seed, Pattern::Nic);
    }

    /// The same with messages queued behind gliders: each follows its
    /// leader inert in the source queue, admitted by a send or by a
    /// plan, whatever its destination, until the leader's last flit has
    /// left, where the mesh is written back and ticked; or earlier, by
    /// any other write-back; however many wait.
    #[test]
    fn followers_wait_inert_under_a_nics_pattern(seed in any::<u64>()) {
        glide_lockstep(seed, Pattern::Followers);
    }
}

/// The lock-step runs above are only worth something if worms do
/// stream in them: most seeds must move flit-hops by stream steps.
#[test]
fn lock_step_runs_exercise_streaming() {
    let streamed = (0..16u64).filter(|&seed| lockstep(seed) > 0).count();
    assert!(streamed >= 12, "only {streamed} of 16 runs streamed");
}

/// Likewise the glide runs: most seeds must glide flits, not just
/// idle cycles.
#[test]
fn glide_runs_exercise_gliding() {
    for pattern in [Pattern::Windows, Pattern::Nic] {
        let glided = (0..16u64)
            .filter(|&seed| glide_lockstep(seed, pattern).0 > 0)
            .count();
        assert!(
            glided > 8,
            "only {glided} of 16 {pattern:?} runs glided a flit"
        );
    }
}

/// And the follower runs: over sixteen seeds, every case of the
/// follower rules happens.
#[test]
fn follower_runs_exercise_every_case() {
    let mut tally = Tally::default();
    for seed in 0..16u64 {
        tally.add(glide_lockstep(seed, Pattern::Followers).1);
    }
    let Tally {
        by_send,
        by_plan,
        exit_windows,
        at_exit,
        early,
        many,
    } = tally;
    assert!(
        [by_send, by_plan, exit_windows, at_exit, early, many]
            .iter()
            .all(|&n| n > 0),
        "{tally:?}"
    );
}
