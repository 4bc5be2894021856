//! The per-tile wormhole router.
//!
//! Figure 3a/3c: every engine tile contains a router; routers connect
//! to their four mesh neighbors plus the local engine. The model is a
//! classic input-buffered wormhole router:
//!
//! * one bounded flit FIFO per input port;
//! * XY dimension-ordered route computation (deadlock-free on a mesh);
//! * per-output round-robin arbitration among requesting inputs;
//! * wormhole ownership: once a head flit wins an output, that output
//!   is locked to its input until the tail flit passes;
//! * credit-based flow control toward each downstream buffer, making
//!   the network lossless (§3.1.2);
//! * one flit per output per cycle, one cycle per hop (§3.1.2: "the
//!   routers add one cycle of latency at each hop").
//!
//! The router decides in `Router::plan_inputs` which input drains
//! through which output; the owning
//! [`MeshNetwork`](crate::network::MeshNetwork) pops the winners
//! (`Router::pop`) and moves flits and credits
//! between routers in the commit phase, preserving the two-phase
//! discipline of [`sim_core::clock`]. What moves is an 8-byte
//! [`FlitHandle`]; the message it belongs to stays put in the network's
//! in-flight slab.
//!
//! A FIFO keeps one handle per flit. Most of them belong to a worm that
//! *streams* — every router it crosses forwards its next flit each
//! cycle — and the network moves such a worm at its two ends without
//! touching the FIFOs in between, so a FIFO's handles need not even
//! shift; the inputs it streams through are left out of the plan
//! (`Router::plan_inputs`). Runs of handles in place of handles were
//! measured and lost: a FIFO holds about two flits, and the run
//! bookkeeping cost more per push and pop than it saved (docs/PERF.md
//! §14).

use packet::FlitKind;

use crate::topology::{Coord, Direction, Topology};

/// A router port: four mesh directions plus the local engine port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Link toward row 0.
    North,
    /// Link toward the last row.
    South,
    /// Link toward the last column.
    East,
    /// Link toward column 0.
    West,
    /// The engine attached to this tile.
    Local,
}

impl PortDir {
    /// All five ports, in arbitration-scan order.
    pub const ALL: [PortDir; 5] = [
        PortDir::North,
        PortDir::South,
        PortDir::East,
        PortDir::West,
        PortDir::Local,
    ];

    /// Number of ports.
    pub const COUNT: usize = 5;

    /// Dense index for per-port arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            PortDir::North => 0,
            PortDir::South => 1,
            PortDir::East => 2,
            PortDir::West => 3,
            PortDir::Local => 4,
        }
    }

    /// The mesh direction of a non-local port.
    #[must_use]
    pub fn direction(self) -> Option<Direction> {
        match self {
            PortDir::North => Some(Direction::North),
            PortDir::South => Some(Direction::South),
            PortDir::East => Some(Direction::East),
            PortDir::West => Some(Direction::West),
            PortDir::Local => None,
        }
    }

    /// The port for a mesh direction.
    #[must_use]
    pub fn from_direction(d: Direction) -> PortDir {
        match d {
            Direction::North => PortDir::North,
            Direction::South => PortDir::South,
            Direction::East => PortDir::East,
            Direction::West => PortDir::West,
        }
    }

    /// The port on which a neighbor receives a flit sent out of this
    /// port (the opposite side).
    #[must_use]
    pub fn opposite(self) -> PortDir {
        match self.direction() {
            Some(d) => PortDir::from_direction(d.opposite()),
            None => PortDir::Local,
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Capacity of each input FIFO, in flits. Also the initial credit
    /// count a neighbor holds toward this router.
    pub input_buffer_flits: usize,
    /// Capacity of the tile's ejection buffer, in flits (credits held
    /// by this router's Local output).
    pub ejection_buffer_flits: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            // 8 flits: less than any message. `Flit::flits_for` counts
            // the chain header too, so a chain-NIC message is 9–11
            // flits at 64-bit channels and every worm spans at least
            // two routers.
            input_buffer_flits: 8,
            ejection_buffer_flits: 16,
        }
    }
}

/// An 8-byte handle to one flit of an in-flight message.
///
/// The mesh moves handles, not messages: `slot` names the message's
/// entry in the network's in-flight slab (which holds, once per message,
/// the [`Message`](packet::Message) itself, its send stamp and — through
/// the message — id and tenant), and the handle carries only what a
/// router reads every hop: where the flit is going and whether it opens
/// or closes a wormhole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitHandle {
    /// The message's slot in the network's in-flight slab.
    pub slot: u32,
    /// Destination tile, resolved from the destination engine once at
    /// send time.
    pub dest: Coord,
    /// Head/body/tail position.
    pub kind: FlitKind,
}

// Layout guards: five 8-flit rings of handles are 320 B and a router's
// control state fits two cache lines, so a 6×6 mesh stays L1-resident
// (`docs/PERF.md`, "The mesh hot path"). A new field must not quietly
// undo that.
const _: () = assert!(std::mem::size_of::<FlitHandle>() == 8);
const _: () = assert!(std::mem::size_of::<Router>() <= 128);

/// One cycle's switch-allocation decisions, by reference: for every
/// output in `granted`, `winner[o]` names the input whose front flit
/// traverses output `o` this cycle.
///
/// The router only records *which* input won each output; the network
/// moves each flit once, straight from the winning input FIFO to the
/// downstream buffer, in the commit phase (`Router::pop`).
/// Credits to return upstream are implied (a grant to input `i` means
/// input `i` drains one flit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutePlan {
    /// Bit `o` set: output port `o` forwards a flit this cycle.
    pub granted: u8,
    /// `winner[o]`: input index draining through output `o`; meaningful
    /// only where `granted` has bit `o` set.
    pub winner: [u8; PortDir::COUNT],
    /// Bit `o` set: output `o` had traffic that wanted to leave this
    /// cycle but was blocked by exhausted credits (the downstream buffer
    /// is full) or a fault mask. The network surfaces these as
    /// `noc.credit_stall` trace events; they are the per-hop signature
    /// of head-of-line blocking and backpressure (§3.1.2).
    pub stalled: u8,
}

/// `in_route` value of an input that holds no wormhole.
pub(crate) const NO_PORT: u8 = u8::MAX;

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
pub struct Router {
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

impl Router {
    /// Builds the router for tile `coord` of `topology`.
    ///
    /// # Panics
    /// Panics if `config.input_buffer_flits` is zero — a zero-capacity
    /// input FIFO can never make progress — or if either buffer size
    /// exceeds `u16::MAX` flits, the range of the router's occupancy
    /// and credit counters (both lint PV102).
    #[must_use]
    pub fn new(coord: Coord, topology: Topology, config: RouterConfig) -> Router {
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
        Router {
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
    pub(crate) fn front(&self, i: usize) -> FlitHandle {
        debug_assert!(self.len[i] > 0, "front of an empty input");
        self.buf[i * usize::from(self.cap) + usize::from(self.head[i])]
    }

    /// Flits queued on input `i`.
    #[inline]
    pub(crate) fn len(&self, i: usize) -> u16 {
        self.len[i]
    }

    /// The output input `i`'s wormhole holds, or [`NO_PORT`].
    #[inline]
    pub(crate) fn in_route(&self, i: usize) -> u8 {
        self.in_route[i]
    }

    /// The input whose wormhole holds output `o` (which must be owned).
    pub(crate) fn owner(&self, o: usize) -> u8 {
        debug_assert!(self.owned & (1 << o) != 0, "owner of a free output");
        self.in_route
            .iter()
            .position(|&r| usize::from(r) == o)
            .expect("an owned output has an owner") as u8
    }

    /// Bitmask of inputs holding at least one flit.
    #[inline]
    pub(crate) fn nonempty(&self) -> u8 {
        self.nonempty
    }

    /// Input `i`'s flits, oldest first.
    #[cfg(test)]
    pub(crate) fn queued(&self, i: usize) -> impl Iterator<Item = FlitHandle> + '_ {
        let cap = usize::from(self.cap);
        (0..usize::from(self.len[i])).map(move |k| {
            let mut off = usize::from(self.head[i]) + k;
            if off >= cap {
                off -= cap;
            }
            self.buf[i * cap + off]
        })
    }

    /// Round-robin pointer of output `o`.
    #[cfg(test)]
    pub(crate) fn rr(&self, o: usize) -> u8 {
        self.rr[o]
    }

    /// Marks the newest flit on input `i` as its message's tail: the tail
    /// entered behind a body flit that left, and a streamed FIFO is not
    /// otherwise touched (see [`MeshNetwork::tick`](crate::MeshNetwork::tick)).
    #[inline]
    pub(crate) fn mark_back_tail(&mut self, i: usize) {
        debug_assert!(self.len[i] > 0, "tail mark on an empty input");
        let back = self.back_at(i);
        self.buf[back].kind = FlitKind::Tail;
    }

    /// The slot of the newest flit on input `i`, if any.
    #[inline]
    pub(crate) fn back_slot(&self, i: usize) -> Option<u32> {
        (self.len[i] > 0).then(|| self.buf[self.back_at(i)].slot)
    }

    /// Ring index of input `i`'s newest flit (which must exist).
    #[inline]
    fn back_at(&self, i: usize) -> usize {
        let cap = usize::from(self.cap);
        let mut off = usize::from(self.head[i]) + usize::from(self.len[i]) - 1;
        if off >= cap {
            off -= cap;
        }
        i * cap + off
    }

    /// Credit capacity of the downstream buffer behind `port`, or
    /// `None` where no link exists (mesh edge).
    #[must_use]
    pub fn link_capacity(&self, port: PortDir) -> Option<usize> {
        let init = self.credit_init[port.index()];
        (init > 0).then_some(usize::from(init))
    }

    /// Credits currently held toward the downstream buffer behind
    /// `port` (0 where no link exists).
    #[must_use]
    pub fn credits(&self, port: PortDir) -> usize {
        usize::from(self.credit[port.index()])
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
    /// [`Router::fault_return_credits`] or the output is permanently
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
    /// output `port` (see [`Router::fault_take_credits`]).
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

    /// This tile's coordinate.
    #[must_use]
    pub fn coord(&self) -> Coord {
        self.coord
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

    /// Total flits currently buffered in all input FIFOs.
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.len.iter().map(|&l| usize::from(l)).sum()
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

    /// Pops the flit a plan winner promised for this cycle (commit
    /// phase; the network moves it downstream), also saying whether
    /// input `i` holds no more of the flit's message: the flit was its
    /// tail, or the input ran dry (a message's flits arrive
    /// contiguously, so a flit behind a non-tail one is its message's
    /// next).
    ///
    /// # Panics
    /// Panics if input `i` is empty — the plan staged a flit that is no
    /// longer there, which is a commit-ordering bug.
    #[inline]
    pub(crate) fn pop(&mut self, i: usize) -> (FlitHandle, bool) {
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
        (flit, flit.kind.is_tail() | (self.len[i] == 0))
    }

    /// True when output `o` holds a credit and is not fault-masked.
    #[inline]
    pub(crate) fn can_send(&self, o: usize) -> bool {
        self.credit[o] > 0 && self.blocked & (1 << o) == 0
    }

    /// Spends one credit of output `o` for a flit a streaming worm moves
    /// through it (the network's stream step).
    #[inline]
    pub(crate) fn spend_credit(&mut self, o: usize) {
        debug_assert!(self.can_send(o), "streamed through a closed output");
        self.credit[o] -= 1;
    }

    /// Refills input `i` with `n` flits, the `k`th of them `flit(k)`: a
    /// glide's rewrite of a FIFO that holds one worm's flits only (see
    /// `MeshNetwork::glide`).
    pub(crate) fn reset_input(&mut self, i: usize, n: usize, flit: impl Fn(usize) -> FlitHandle) {
        let cap = usize::from(self.cap);
        debug_assert!(n <= cap, "a glide overfilled input {i}");
        for (k, slot) in self.buf[i * cap..i * cap + n].iter_mut().enumerate() {
            *slot = flit(k);
        }
        self.head[i] = 0;
        self.len[i] = n as u16;
        if n > 0 {
            self.nonempty |= 1 << i;
        } else {
            self.nonempty &= !(1 << i);
        }
    }

    /// Opens input `i`'s wormhole through output `o`, or closes it
    /// ([`NO_PORT`]), without touching the round-robin pointer: the
    /// ownership a glide leaves behind a head it carried past this
    /// router.
    pub(crate) fn set_route(&mut self, i: usize, o: u8) {
        let old = self.in_route[i];
        if old != NO_PORT {
            self.owned &= !(1 << old);
        }
        self.in_route[i] = o;
        if o != NO_PORT {
            self.owned |= 1 << o;
        }
    }

    /// Moves output `o`'s credits by `delta`: what a glide's pops and
    /// pushes of the buffer behind `o` returned and spent.
    ///
    /// # Panics
    /// Panics if that leaves the credits outside `[0, capacity]` — the
    /// glide moved flits the credit protocol would not have.
    pub(crate) fn shift_credits(&mut self, o: usize, delta: i32) {
        let credit = i32::from(self.credit[o]) + delta;
        assert!(
            (0..=i32::from(self.credit_init[o])).contains(&credit),
            "router {}: a glide left output {o} with {credit} credits",
            self.coord
        );
        self.credit[o] = credit as u16;
    }

    /// Closes input `i`'s wormhole through output `o` behind its tail.
    #[inline]
    pub(crate) fn release(&mut self, o: usize, i: usize) {
        self.in_route[i] = NO_PORT;
        self.owned &= !(1 << o);
        // Advance round-robin past the input that just finished.
        self.rr[o] = next_port(i);
    }

    /// Grants output `o` to the front flit of input `i`: one credit
    /// spent, wormhole ownership opened by a head and closed by a tail.
    #[inline]
    fn grant(&mut self, plan: &mut RoutePlan, o: usize, i: usize, kind: FlitKind) {
        if kind.is_tail() {
            self.release(o, i);
        } else {
            self.in_route[i] = o as u8;
            self.owned |= 1 << o;
        }
        self.credit[o] -= 1;
        self.forwarded += 1;
        plan.winner[o] = i as u8;
        plan.granted |= 1 << o;
    }

    /// Phase 1: switch allocation for one cycle, by reference, over
    /// the non-empty inputs in `inputs` only.
    ///
    /// Decides which input (if any) traverses each output port this
    /// cycle, updating wormhole ownership, round-robin pointers, and
    /// output credits, and returns the winners. Flits are *not* popped
    /// here — the commit phase pops each winner exactly once via
    /// `Router::pop`, so a flit is moved a single time per hop. Reads
    /// only pre-tick input state, preserving the two-phase discipline.
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
    ///
    /// The network leaves out of `inputs` the inputs a streaming worm
    /// moves this cycle: each is a wormhole continuation with a credit,
    /// which neither stalls nor competes for an output a head wants, so
    /// leaving it out changes nothing else.
    pub(crate) fn plan_inputs(&mut self, inputs: u8) -> RoutePlan {
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
        let mut inputs = inputs & self.nonempty;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::mesh(3, 3)
    }

    /// The handles of an `n`-flit message in slab slot `slot` bound for
    /// tile `dest`.
    fn flits_for(dest: Coord, n: u32, slot: u32) -> Vec<FlitHandle> {
        (0..n)
            .map(|seq| FlitHandle {
                slot,
                dest,
                kind: FlitKind::at(seq, n),
            })
            .collect()
    }

    /// A single-flit message.
    fn single(dest: Coord, slot: u32) -> FlitHandle {
        flits_for(dest, 1, slot)[0]
    }

    /// One cycle as the network runs it: plan, then pop every winner.
    /// Returns the plan and the flit that left through each output.
    fn step(r: &mut Router) -> (RoutePlan, [Option<FlitHandle>; PortDir::COUNT]) {
        let plan = r.plan_inputs(u8::MAX);
        let mut out = [None; PortDir::COUNT];
        for (o, sent) in out.iter_mut().enumerate() {
            if plan.granted & (1 << o) != 0 {
                *sent = Some(r.pop(usize::from(plan.winner[o])).0);
            }
        }
        (plan, out)
    }

    const EAST: usize = 2;
    const E_OF_CENTER: Coord = Coord::new(2, 1);

    #[test]
    fn port_index_and_opposite() {
        for (i, p) in PortDir::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(PortDir::East.index(), EAST);
        assert_eq!(PortDir::North.opposite(), PortDir::South);
        assert_eq!(PortDir::East.opposite(), PortDir::West);
        assert_eq!(PortDir::Local.opposite(), PortDir::Local);
        assert_eq!(PortDir::Local.direction(), None);
    }

    #[test]
    fn routes_flit_toward_destination_x_first() {
        // Router at center (1,1); destination (2,2): XY routing goes
        // East first.
        let mut r = Router::new(Coord::new(1, 1), topo(), RouterConfig::default());
        r.accept(PortDir::West, single(Coord::new(2, 2), 1));
        let (plan, out) = step(&mut r);
        assert_eq!(plan.granted, 1 << EAST);
        assert_eq!(plan.winner[EAST], PortDir::West.index() as u8);
        assert_eq!(out[EAST].map(|f| f.slot), Some(1));
        assert_eq!(r.flits_forwarded(), 1);
        assert!(r.is_idle());
    }

    #[test]
    fn local_delivery_when_at_destination() {
        let mut r = Router::new(Coord::new(2, 2), topo(), RouterConfig::default());
        r.accept(PortDir::North, single(Coord::new(2, 2), 1));
        let (plan, _) = step(&mut r);
        assert_eq!(plan.granted, 1 << PortDir::Local.index());
    }

    #[test]
    fn wormhole_keeps_message_contiguous() {
        // A 3-flit message and a competing 1-flit message to the same
        // output: the second message must not interleave.
        let mut r = Router::new(Coord::new(1, 1), topo(), RouterConfig::default());
        for f in flits_for(E_OF_CENTER, 3, 1) {
            r.accept(PortDir::North, f);
        }
        r.accept(PortDir::West, single(E_OF_CENTER, 2));
        // Three cycles of the long message, then the short one.
        let order: Vec<u32> = (0..4)
            .filter_map(|_| step(&mut r).1[EAST].map(|f| f.slot))
            .collect();
        assert_eq!(order, vec![1, 1, 1, 2]);
    }

    #[test]
    fn owned_output_idles_while_its_wormhole_runs_dry() {
        // The head has gone through but its body has not arrived yet:
        // East stays reserved, a competing head waits without a stall.
        let mut r = Router::new(Coord::new(1, 1), topo(), RouterConfig::default());
        let long = flits_for(E_OF_CENTER, 2, 1);
        r.accept(PortDir::North, long[0]);
        assert_eq!(step(&mut r).1[EAST], Some(long[0]));
        r.accept(PortDir::West, single(E_OF_CENTER, 2));
        let (plan, _) = step(&mut r);
        assert_eq!((plan.granted, plan.stalled), (0, 0));
        r.accept(PortDir::North, long[1]);
        assert_eq!(step(&mut r).1[EAST], Some(long[1]));
        assert_eq!(step(&mut r).1[EAST].map(|f| f.slot), Some(2));
    }

    #[test]
    fn output_blocks_without_credit_and_resumes_on_refill() {
        let cfg = RouterConfig {
            input_buffer_flits: 2,
            ejection_buffer_flits: 2,
        };
        let mut r = Router::new(Coord::new(1, 1), topo(), cfg);
        // Credits toward East: 2. Consume both.
        r.accept(PortDir::West, single(E_OF_CENTER, 1));
        r.accept(PortDir::West, single(E_OF_CENTER, 2));
        assert!(step(&mut r).1[EAST].is_some());
        r.accept(PortDir::West, single(E_OF_CENTER, 3));
        assert!(step(&mut r).1[EAST].is_some());
        assert_eq!(r.credits(PortDir::East), 0);
        // No credits left: output stalls even though input has a flit,
        // and the stall is reported for the tracer.
        let (plan, _) = step(&mut r);
        assert_eq!(plan.granted, 0);
        assert_eq!(plan.stalled, 1 << EAST, "East stalled; idle != stalled");
        // Refill one credit: the stalled flit moves.
        r.refill_credit(PortDir::East);
        assert!(step(&mut r).1[EAST].is_some());
    }

    #[test]
    fn round_robin_shares_an_output() {
        let mut r = Router::new(Coord::new(1, 1), topo(), RouterConfig::default());
        // Single-flit messages from two different inputs, all to East.
        for slot in [1, 3] {
            r.accept(PortDir::North, single(E_OF_CENTER, slot));
        }
        for slot in [2, 4] {
            r.accept(PortDir::South, single(E_OF_CENTER, slot));
        }
        let order: Vec<u32> = (0..4)
            .filter_map(|_| step(&mut r).1[EAST].map(|f| f.slot))
            .collect();
        // Strict alternation: neither input sends twice before the
        // other has sent once.
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn one_flit_per_input_per_cycle() {
        // Two single-flit messages queued on ONE input, destined for
        // different outputs: only one may leave per cycle.
        let mut r = Router::new(Coord::new(1, 1), topo(), RouterConfig::default());
        r.accept(PortDir::West, single(E_OF_CENTER, 1)); // East
        r.accept(PortDir::West, single(Coord::new(1, 2), 2)); // South
        assert_eq!(step(&mut r).0.granted.count_ones(), 1);
        assert_eq!(step(&mut r).0.granted.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "input overrun")]
    fn accept_into_full_buffer_panics() {
        let cfg = RouterConfig {
            input_buffer_flits: 1,
            ejection_buffer_flits: 1,
        };
        let mut r = Router::new(Coord::new(0, 0), topo(), cfg);
        r.accept(PortDir::East, single(Coord::new(0, 0), 1));
        r.accept(PortDir::East, single(Coord::new(0, 0), 2));
    }

    #[test]
    fn counters_cover_the_whole_u16_range() {
        // The largest accepted buffers fill, wrap and drain without a
        // counter wrapping.
        let cfg = RouterConfig {
            input_buffer_flits: usize::from(u16::MAX),
            ejection_buffer_flits: usize::from(u16::MAX),
        };
        let mut r = Router::new(Coord::new(1, 1), topo(), cfg);
        assert_eq!(r.credits(PortDir::Local), usize::from(u16::MAX));
        // Start the ring off zero so filling it wraps mid-way.
        r.accept(PortDir::West, single(Coord::new(1, 1), 0));
        step(&mut r);
        r.refill_credit(PortDir::Local);
        for round in 0..2 {
            for n in 0..u32::from(u16::MAX) {
                r.accept(PortDir::West, single(Coord::new(1, 1), n));
            }
            assert_eq!(r.input_space(PortDir::West), 0);
            for n in 0..u32::from(u16::MAX) {
                let (_, out) = step(&mut r);
                assert_eq!(out[PortDir::Local.index()].map(|f| f.slot), Some(n));
                if round == 0 {
                    r.refill_credit(PortDir::Local);
                }
            }
            assert!(r.is_idle());
        }
        assert_eq!(r.credits(PortDir::Local), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the router's 16-bit counters")]
    fn buffer_beyond_the_counters_is_refused_not_wrapped() {
        let cfg = RouterConfig {
            input_buffer_flits: usize::from(u16::MAX) + 1,
            ejection_buffer_flits: 16,
        };
        let _ = Router::new(Coord::new(0, 0), topo(), cfg);
    }

    #[test]
    fn blocked_output_stalls_and_resumes() {
        let mut r = Router::new(Coord::new(1, 1), topo(), RouterConfig::default());
        r.accept(PortDir::West, single(E_OF_CENTER, 1));
        r.set_fault_blocked(PortDir::East, true);
        let (plan, _) = step(&mut r);
        assert_eq!(plan.granted, 0);
        assert_eq!(plan.stalled, 1 << EAST, "blocked looks stalled");
        // Unblock: the flit moves, credits were conserved throughout.
        r.set_fault_blocked(PortDir::East, false);
        assert!(step(&mut r).1[EAST].is_some());
    }

    #[test]
    fn credit_confiscation_throttles_and_return_restores() {
        let cfg = RouterConfig {
            input_buffer_flits: 2,
            ejection_buffer_flits: 2,
        };
        let mut r = Router::new(Coord::new(1, 1), topo(), cfg);
        // Take both East credits; asking for more only gets what exists.
        assert_eq!(r.fault_take_credits(PortDir::East, 5), 2);
        r.accept(PortDir::West, single(E_OF_CENTER, 1));
        let (plan, _) = step(&mut r);
        assert_eq!((plan.granted, plan.stalled), (0, 1 << EAST));
        // Return them: traffic flows again.
        r.fault_return_credits(PortDir::East, 2);
        assert!(step(&mut r).1[EAST].is_some());
        // A port with no link yields nothing to confiscate.
        let mut corner = Router::new(Coord::new(0, 0), topo(), cfg);
        assert_eq!(corner.fault_take_credits(PortDir::North, 3), 0);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn returning_credits_never_taken_panics() {
        let mut r = Router::new(Coord::new(1, 1), topo(), RouterConfig::default());
        r.fault_return_credits(PortDir::East, usize::from(u16::MAX) + 1);
    }

    #[test]
    fn edge_router_has_no_credits_off_mesh() {
        let r = Router::new(Coord::new(0, 0), topo(), RouterConfig::default());
        // North and West links don't exist at the corner.
        assert!(r.link_capacity(PortDir::North).is_none());
        assert!(r.link_capacity(PortDir::West).is_none());
        assert_eq!(r.link_capacity(PortDir::East), Some(8));
        assert_eq!(r.link_capacity(PortDir::South), Some(8));
        assert_eq!(r.link_capacity(PortDir::Local), Some(16));
        assert_eq!(r.credits(PortDir::North), 0);
    }
}
