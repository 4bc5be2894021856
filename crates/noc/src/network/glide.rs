//! Gliding through clear transit: messages that move as conveyors while
//! the mesh is skipped, or ticked without a walk.
//!
//! A message is in *clear transit* when its remaining XY route — from
//! the first FIFO that holds any of it (its source's Local input while
//! it still injects) to its destination's ejection buffer — shares no
//! buffer with another message's route, ends at a tile that polls every
//! cycle, and has no full FIFO that a flit could still enter. Nothing
//! contends with such a message and no hop waits for a credit (the poll
//! hands the last one a Local credit back every cycle), so it moves as a
//! conveyor: each cycle the source injects one flit, every FIFO that
//! holds any of it forwards one, the head takes one XY hop, and the
//! destination polls one.
//!
//! A glide counts the message's flits by *position*: 0 is the ejection
//! buffer, `q` the FIFO `q` buffers before it, and the source queue
//! counts as part of the first FIFO's queue (an injected flit waits
//! there behind the ones already in it). A cycle then takes one flit
//! from every occupied position to the one below it, and polls one at
//! 0. Once no position below the first holds more than one flit, that is
//! a shift: the flit at `p` is at `p − t` after `t` cycles, polled if
//! that went below zero, the first position's queue feeding one a
//! cycle; flits bunched further ahead are stepped cycle by cycle on the
//! count array until they are not.
//!
//! Such a message is a *glider* until its tail is polled: from the hint
//! that plans it, or from its send into a mesh that holds nothing or
//! only gliders, when its route meets none of theirs (the route is then
//! empty, so no buffer is read). The routers keep the state it had when
//! it became one (its anchor); the glider carries its counts as they
//! are now and the conveyor cycles it moved since.
//! [`MeshNetwork::glide`] over a window, and [`MeshNetwork::tick`] of a
//! mesh that holds only gliders, move those counts and, by arithmetic
//! on them, every counter a stepped run would have moved:
//! `delivered_flits`, the flit-hops, `active_cycles`, the resident
//! flits and the ejection-pending bits. A poll of a glider's
//! destination takes a flit off its count. A hint reads no route that
//! was read before.
//!
//! A message queued behind a glider in that glider's source queue is
//! its *follower*, wherever it is bound: a plan takes every message
//! behind a source queue's front as one, and a send into a gliding mesh
//! queues one behind a glider still injecting there. Its flits stay in
//! the source queue, where the routers' side counts them, and nothing of
//! it moves until its leader's last flit has left the queue: the next
//! tick would inject its head. A glide's horizon ends there, so no
//! window reaches past it. A follower is never a glider and shares no
//! FIFO with one while it waits, so the conveyors are the gliders'
//! alone, and only followers may share a destination while the mesh
//! glides. A follower costs a glide nothing, so any number may wait.
//!
//! The routers are written once a message, by `glide_one`:
//!
//! * at the poll of its tail — that glider alone, and the poll then
//!   delivers from the buffers as a stepped run's would;
//! * at a send whose route meets a glider's, or that the gliders cannot
//!   take (a destination a message that is not a follower is bound for,
//!   a ninth glider, a source queue whose glider has left it);
//! * at a tick after a cycle on which a destination held a flit and was
//!   not polled, unless the message is wholly in that buffer, where
//!   nothing moves without a poll;
//! * at the tick on which a follower's head would be injected (or the
//!   poll of its leader's tail just before it);
//! * when a tracer, a slow link or a credit hold arrives;
//! * at [`MeshNetwork::settle`], for a caller that reads the buffers.
//!
//! All but the first write every glider back, and the mesh is ticked
//! as before until a hint plans again or it empties. `reference.rs` runs
//! gliders and their followers under a NIC's pattern of sends, polls,
//! windows and forced steps beside the flit-at-a-time mesh, and
//! compares the buffers a write-back wrote as it writes them.

use sim_core::bits::set_bits;
use sim_core::time::Cycle;

use super::{kind, MeshNetwork, Source, Worm, WormState, LOCAL, OPPOSITE};
use crate::router::{FlitHandle, PortDir, NO_PORT};
use crate::topology::Coord;

/// Port indices, as [`PortDir::index`] numbers them.
const NORTH: usize = 0;
const SOUTH: usize = 1;
const EAST: usize = 2;
const WEST: usize = 3;

/// The most messages a glide considers. A mesh holding more is busy, and
/// the clear-path test refuses it before it walks a route.
pub(super) const MAX_GLIDERS: usize = 8;

/// The most FIFOs on a route a glide models (a route across a mesh more
/// than 16 tiles each way is ticked).
const MAX_FIFOS: usize = 32;

/// An XY route as tile-index arithmetic: from input `port` of tile
/// `start`, `along_x` hops of `x_step` to tile `turn`, then `along_y`
/// hops of `y_step`, leaving each hop by `*_out` and entering the next
/// by `*_in`.
#[derive(Debug, Clone, Copy)]
struct Route {
    start: u16,
    turn: u16,
    along_x: u8,
    along_y: u8,
    x_step: i8,
    y_step: i16,
    port: u8,
    x_out: u8,
    x_in: u8,
    y_out: u8,
    y_in: u8,
}

impl Route {
    const NONE: Route = Route {
        start: 0,
        turn: 0,
        along_x: 0,
        along_y: 0,
        x_step: 0,
        y_step: 0,
        port: 0,
        x_out: 0,
        x_in: 0,
        y_out: 0,
        y_in: 0,
    };

    /// The route from input `port` of the tile at `from` to the tile at
    /// `to`, on a mesh `width` tiles wide.
    fn new(from: Coord, port: usize, to: Coord, width: u8) -> Route {
        // At most 255 × 255 tiles, and 254 hops each way.
        let index = |c: Coord| u16::from(c.y) * u16::from(width) + u16::from(c.x);
        let (dx, dy) = (
            i32::from(to.x) - i32::from(from.x),
            i32::from(to.y) - i32::from(from.y),
        );
        let (x_out, x_in) = if dx > 0 { (EAST, WEST) } else { (WEST, EAST) };
        let (y_out, y_in) = if dy > 0 {
            (SOUTH, NORTH)
        } else {
            (NORTH, SOUTH)
        };
        Route {
            start: index(from),
            turn: index(Coord::new(to.x, from.y)),
            along_x: dx.unsigned_abs() as u8,
            along_y: dy.unsigned_abs() as u8,
            x_step: dx.signum() as i8,
            y_step: (dy.signum() * i32::from(width)) as i16,
            port: port as u8,
            x_out: x_out as u8,
            x_in: x_in as u8,
            y_out: y_out as u8,
            y_in: y_in as u8,
        }
    }

    /// The route's FIFOs, from the first to the destination's: each
    /// one's tile, its input, and the output it forwards through.
    #[inline]
    fn fifos(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (along_x, last) = (
            u32::from(self.along_x),
            u32::from(self.along_x) + u32::from(self.along_y),
        );
        let mut tile = i32::from(self.start);
        (0..=last).map(move |j| {
            let input = if j == 0 {
                self.port
            } else if j <= along_x {
                self.x_in
            } else {
                self.y_in
            };
            let (out, step) = if j < along_x {
                (self.x_out, i32::from(self.x_step))
            } else if j < last {
                (self.y_out, i32::from(self.y_step))
            } else {
                (LOCAL as u8, 0)
            };
            let here = tile as usize;
            tile += step;
            (here, usize::from(input), usize::from(out))
        })
    }

    /// True when input `input` of tile `tile` is a FIFO of this route.
    fn crosses(&self, tile: usize, input: usize) -> bool {
        let d = tile as i32 - i32::from(self.start);
        if d == 0 {
            return input == usize::from(self.port);
        }
        if (1..=i32::from(self.along_x)).contains(&(d * i32::from(self.x_step))) {
            return input == usize::from(self.x_in);
        }
        let (d, y_step) = (tile as i32 - i32::from(self.turn), i32::from(self.y_step));
        y_step != 0
            && d % y_step == 0
            && (1..=i32::from(self.along_y)).contains(&(d / y_step))
            && input == usize::from(self.y_in)
    }
}

/// One message in clear transit: where it was at its anchor (what the
/// routers still hold), and where its flits are now.
#[derive(Debug, Clone, Copy)]
struct Glider {
    slot: u32,
    /// Its destination's tile index.
    to: u32,
    /// Its remaining route at the anchor, from the first FIFO that held
    /// any of it; meaningless for a message wholly in its destination's
    /// ejection buffer.
    route: Route,
    /// The route's corners, for a quick test of two routes apart.
    start: Coord,
    dest: Coord,
    /// FIFOs on that route, the first one's and one a hop: the first
    /// one's position. 0 for a message wholly in its destination's
    /// ejection buffer.
    fifos: u32,
    /// At the anchor: flits in the first FIFO, and in the source queue
    /// behind it.
    local: u32,
    queued: u32,
    /// At the anchor: the position of its frontmost flit, and whether
    /// that is its head.
    front: u32,
    head: bool,
    /// Conveyor cycles moved since the anchor.
    moved: u32,
    /// Conveyor cycles left until its tail is polled.
    tail: u32,
    /// Whether its destination was polled on the current cycle.
    polled: bool,
    /// Its flits by position now (a message of more flits than a
    /// `u16` counts is ticked).
    count: [u16; MAX_FIFOS + 1],
}

// A glider is moved only when one leaves the array: at most 128 bytes,
// the largest move LLVM does inline on baseline x86-64 rather than
// through a `memcpy` call (see the pin in `packet::message`).
const _: () = assert!(std::mem::size_of::<Glider>() <= 128);

/// What a glider's conveyor cycles moved: flits polled, flits into the
/// ejection buffer, flit-hops.
#[derive(Debug, Default)]
struct Moved {
    polled: u64,
    ejected: u64,
    hops: u64,
}

impl Glider {
    const NONE: Glider = Glider {
        slot: 0,
        to: 0,
        route: Route::NONE,
        start: Coord::new(0, 0),
        dest: Coord::new(0, 0),
        fifos: 0,
        local: 0,
        queued: 0,
        front: 0,
        head: false,
        moved: 0,
        tail: 0,
        polled: false,
        count: [0; MAX_FIFOS + 1],
    };

    /// True when this message and `other` need a FIFO in common, on the
    /// routes they had at their anchors: a FIFO one has left still
    /// holds its flits in the routers. (Two bound for one ejection
    /// buffer never get this far unless one is a follower, which is no
    /// glider: the mesh counts the others, see
    /// [`MeshNetwork::must_tick`].)
    fn meets(&self, other: &Glider) -> bool {
        if self.fifos == 0 || other.fifos == 0 {
            return false;
        }
        // Routes inside disjoint rectangles share nothing.
        let span = |g: &Glider| {
            let (x, y) = (g.start.x.min(g.dest.x), g.start.y.min(g.dest.y));
            (x, g.start.x.max(g.dest.x), y, g.start.y.max(g.dest.y))
        };
        let (a, b) = (span(self), span(other));
        if a.1 < b.0 || b.1 < a.0 || a.3 < b.2 || b.3 < a.2 {
            return false;
        }
        self.route
            .fifos()
            .any(|(tile, input, _)| other.route.crosses(tile, input))
    }

    /// Flits still in its source queue: the first FIFO keeps its count
    /// while the source feeds it.
    fn queued_now(&self) -> u32 {
        let first = u32::from(self.count[self.fifos as usize]);
        first - self.local.min(first)
    }

    /// True when it leads followers: it was still injecting at its
    /// anchor, and messages wait behind it in that source queue (which
    /// the routers' side keeps as it was at the anchor, followers
    /// added).
    fn leads(&self, source: &[Source]) -> bool {
        self.queued > 0 && !source[usize::from(self.route.start)].behind.is_empty()
    }

    /// Conveyor cycles until its next event: its tail's poll, or, while
    /// it leads followers, the cycle the first of them would inject its
    /// head on (the one after its own last flit leaves the source).
    fn until(&self, source: &[Source]) -> u32 {
        if self.leads(source) {
            self.queued_now()
        } else {
            self.tail
        }
    }

    /// True while a flit of it is in a FIFO or its source queue.
    fn in_fifos(&self) -> bool {
        self.count[1..=self.fifos as usize].iter().any(|&n| n > 0)
    }

    /// Moves it `t` conveyor cycles, its destination polled on each.
    fn advance(&mut self, t: u32) -> Moved {
        let count = &mut self.count[..=self.fifos as usize];
        let tally = |count: &[u16]| {
            count
                .iter()
                .enumerate()
                .fold((0u64, 0u64), |(flits, hops), (q, &n)| {
                    (flits + u64::from(n), hops + q as u64 * u64::from(n))
                })
        };
        let (flits, distance) = tally(count);
        let ejected = u64::from(count[0]);
        // A flit moves at most a position a cycle, so none is below this.
        let lo = self.front.saturating_sub(self.moved);
        advance(count, lo as usize, t);
        let (flits_after, distance_after) = tally(count);
        self.moved += t;
        self.tail -= t;
        Moved {
            polled: flits - flits_after,
            ejected: (flits - ejected) - (flits_after - u64::from(count[0])),
            hops: distance - distance_after,
        }
    }
}

/// The gliders, in a fixed array so that planning and moving them
/// allocates nothing: empty unless every live message is one.
#[derive(Debug)]
pub(super) struct Gliders {
    /// The messages sent and the slab slots free when a plan last
    /// failed: until a message is sent or delivered, contention that
    /// stopped one plan is taken to stop the next, and none is tried.
    refused: Option<[u64; 2]>,
    len: usize,
    all: [Glider; MAX_GLIDERS],
}

/// When the first tail is polled, as the gliders tell.
enum Horizon {
    /// In this many cycles from the next one (or a follower injects
    /// then).
    Tail(u32),
    /// Not before the next cycle: a message still in the routers heads
    /// for a tile that is not polled.
    Next,
    /// Never without outside input: every message waits in the ejection
    /// buffer of a tile that is not polled.
    Never,
}

impl Gliders {
    pub(super) const NONE: Gliders = Gliders {
        refused: None,
        len: 0,
        all: [Glider::NONE; MAX_GLIDERS],
    };

    fn as_slice(&self) -> &[Glider] {
        &self.all[..self.len]
    }

    /// True while the mesh glides: every live message is a glider.
    pub(super) fn any(&self) -> bool {
        self.len > 0
    }

    /// True when a plan failed and no message was sent or delivered
    /// since.
    fn refused_now(&self, net: &MeshNetwork) -> bool {
        self.refused == Some(net.messages_key())
    }

    fn holds(&self, slot: u32) -> bool {
        self.as_slice().iter().any(|g| g.slot == slot)
    }

    /// Adds the glider `fill` writes in place (none when it says
    /// `None`); `None` when the array is full.
    fn push_with(&mut self, fill: impl FnOnce(&mut Glider) -> Option<()>) -> Option<()> {
        fill(self.all.get_mut(self.len)?)?;
        self.len += 1;
        Some(())
    }

    /// When the first tail is polled or the first follower would inject,
    /// given which tiles poll.
    fn horizon(&self, polled: &impl Fn(usize) -> bool, source: &[Source]) -> Horizon {
        let mut first = None;
        for g in self.as_slice() {
            let polled = polled(g.to as usize);
            if !polled && g.in_fifos() {
                return Horizon::Next;
            }
            // A follower injects whether or not its leader's tile polls.
            if polled || g.leads(source) {
                let until = g.until(source);
                first = Some(first.map_or(until, |t: u32| t.min(until)));
            }
        }
        first.map_or(Horizon::Never, Horizon::Tail)
    }

    /// The glider bound for `tile`, if any.
    fn bound_for(&self, tile: usize) -> Option<usize> {
        self.as_slice().iter().position(|g| g.to as usize == tile)
    }
}

impl MeshNetwork {
    fn tile_at(&self, at: Coord) -> usize {
        usize::from(at.y) * usize::from(self.config.topology.width()) + usize::from(at.x)
    }

    /// True when the mesh holds a flit and, as one look at its counters
    /// tells, will not glide: it may not glide at all, two messages that
    /// are not followers share a destination, it holds more worms than a
    /// glide considers, or no message was sent or delivered since a plan
    /// last failed. Then
    /// [`MeshNetwork::next_activity`] is the next cycle, whatever the
    /// caller polls.
    #[must_use]
    pub fn must_tick(&self) -> bool {
        self.resident_flits > 0 && (self.crowded() || self.plan.borrow().refused_now(self))
    }

    /// The counters' half of [`MeshNetwork::must_tick`].
    fn crowded(&self) -> bool {
        !self.may_glide()
            || self.shared_dests > 0
            || self.waiting.len() + self.segs.len() > MAX_GLIDERS
    }

    /// Messages sent, and slab slots free: the one grows with every
    /// send, the other with every delivery in between.
    fn messages_key(&self) -> [u64; 2] {
        [self.stats.injected_messages, self.free_slots.len() as u64]
    }

    /// False for a traced mesh, one with a slow link or credit hold
    /// active, and one with one-flit input buffers: none of them glides.
    fn may_glide(&self) -> bool {
        let faulted = self
            .faults
            .as_ref()
            .is_some_and(|f| !f.slow.is_empty() || !f.holds.is_empty());
        !self.tracer.enabled() && !faulted && self.config.router.input_buffer_flits >= 2
    }

    /// Plans the gliders into `out` from the routers: every live message
    /// as one, each source queue's front message, and the messages
    /// behind it as its followers; or `None` unless all of the gliders
    /// are in clear transit (`polled` says which tiles poll every cycle)
    /// — then `out` holds none. The cheap refusals come first, so a busy
    /// mesh fails before any buffer on a route is read: those of
    /// [`MeshNetwork::must_tick`], then a message that shares its
    /// ejection buffer, then two routes that meet.
    fn plan_into(&self, out: &mut Gliders, polled: &impl Fn(usize) -> bool) -> Option<()> {
        debug_assert!(!out.any(), "planned over live gliders");
        let planned = self.plan_gliders(out, polled);
        if planned.is_none() {
            out.len = 0;
        }
        planned
    }

    /// [`MeshNetwork::plan_into`], leaving what it planned before a
    /// refusal in `out`.
    fn plan_gliders(&self, out: &mut Gliders, polled: &impl Fn(usize) -> bool) -> Option<()> {
        if self.crowded() || out.refused_now(self) {
            return None;
        }
        out.refused = Some(self.messages_key());
        // Messages still injecting, from their source's Local input (the
        // messages behind them follow).
        for word in 0..self.source_pending.len() {
            for bit in set_bits(self.source_pending[word]) {
                let tile = word * 64 + bit;
                let run = self.source[tile].front;
                out.push_with(|g| {
                    self.glider(g, run.slot, tile, LOCAL, run.dest, run.left, run.fresh)
                })?;
            }
        }
        // The other worms in the routers, from their tail-most run.
        for slot in self
            .waiting
            .iter()
            .copied()
            .chain(self.segs.iter().map(|s| s.slot))
        {
            if out.holds(slot) {
                continue;
            }
            let worm = self.worms[slot as usize];
            let (tile, port) = (usize::from(worm.tail_tile), usize::from(worm.tail_port));
            let router = &self.routers[tile];
            if router.len(port) == 0 || router.front(port).slot != slot {
                return None;
            }
            let dest = router.front(port).dest;
            out.push_with(|g| self.glider(g, slot, tile, port, dest, 0, false))?;
        }
        // Messages wholly ejected (a buffer holding parts of two shares
        // its poll).
        for word in 0..self.ejection_pending.len() {
            for bit in set_bits(self.ejection_pending[word]) {
                let tile = word * 64 + bit;
                let ejection = &self.ejection[tile];
                let (first, last) = (ejection[0], ejection[ejection.len() - 1]);
                // A worm still in the routers: its walk reads this buffer.
                if out.holds(first.slot) {
                    continue;
                }
                if last.slot != first.slot || !last.kind.is_tail() {
                    return None;
                }
                out.push_with(|g| {
                    *g = Glider {
                        slot: first.slot,
                        to: tile as u32,
                        dest: first.dest,
                        tail: ejection.len() as u32 - 1,
                        head: first.kind.is_head(),
                        ..Glider::NONE
                    };
                    g.count[0] = ejection.len() as u16;
                    Some(())
                })?;
            }
        }
        let all = out.as_slice();
        for (k, a) in all.iter().enumerate() {
            if all[k + 1..].iter().any(|b| a.meets(b)) {
                return None;
            }
        }
        for g in &mut out.all[..out.len] {
            if g.fifos > 0 {
                self.read_route(g, polled)?;
            }
        }
        out.refused = None;
        Some(())
    }

    /// Writes message `slot` into `g` as a glider, its remaining route
    /// starting at input `port` of `tile` toward `dest`, with `queued`
    /// flits still in the source queue there (the next of them its head
    /// while `fresh`); its buffers are not read yet (`read_route`).
    /// `None` for a route longer than a glide models.
    #[allow(clippy::too_many_arguments)]
    fn glider(
        &self,
        g: &mut Glider,
        slot: u32,
        tile: usize,
        port: usize,
        dest: Coord,
        queued: u32,
        fresh: bool,
    ) -> Option<()> {
        let start = self.routers[tile].coord();
        let fifos = 1 + start.distance(dest);
        if fifos as usize > MAX_FIFOS {
            return None;
        }
        *g = Glider {
            slot,
            to: self.tile_at(dest) as u32,
            route: Route::new(start, port, dest, self.config.topology.width()),
            start,
            dest,
            fifos,
            queued,
            head: fresh,
            ..Glider::NONE
        };
        Some(())
    }

    /// Reads the buffers on `g`'s route into it: where its flits are and
    /// when its tail is polled. `None` unless its destination polls and
    /// no FIFO on the route holds another message's flit at its front or
    /// is full where a flit could still enter.
    fn read_route(&self, g: &mut Glider, polled: &impl Fn(usize) -> bool) -> Option<()> {
        let to = g.to as usize;
        if !polled(to) {
            return None;
        }
        let (slot, fifos, queued) = (g.slot, g.fifos, g.queued);
        let cap = self.config.router.input_buffer_flits;
        // From the first FIFO down to the ejection buffer: the tail is
        // polled `max(q + behind(q)) − 1` cycles out, over the occupied
        // positions `q` and the flits `behind(q)` at or behind each.
        let (mut behind, mut tail) = (queued, 0);
        let mut front = None;
        for (j, (tile, input, _)) in (0..).zip(g.route.fifos()) {
            let router = &self.routers[tile];
            let n = router.len(input);
            // A FIFO a flit may still enter must have room for it: the
            // first one only while its source injects.
            if usize::from(n) >= cap && (j > 0 || queued > 0) {
                return None;
            }
            if j == 0 {
                g.local = u32::from(n);
            }
            if n > 0 {
                let f = router.front(input);
                if f.slot != slot {
                    return None;
                }
                front = Some((fifos - j, f.kind.is_head()));
            }
            g.count[(fifos - j) as usize] = n;
            behind += u32::from(n);
            if behind > 0 && (n > 0 || j == 0) {
                tail = tail.max(fifos - j + behind);
            }
        }
        g.count[fifos as usize] = u16::try_from(g.local + queued).ok()?;
        let ejection = &self.ejection[to];
        if let Some(f) = ejection.front() {
            if f.slot != slot {
                return None;
            }
            front = Some((0, f.kind.is_head()));
            behind += ejection.len() as u32;
            tail = tail.max(behind);
        }
        g.count[0] = ejection.len() as u16;
        // The last hop forwards every cycle only while the poll hands it
        // a Local credit back every cycle; and a tail-most run must be
        // where the worm's record says.
        if self.routers[to].credits(PortDir::Local) + ejection.len() == 0 || g.local + queued == 0 {
            return None;
        }
        g.tail = tail - 1;
        (g.front, g.head) = front.unwrap_or((fifos, g.head));
        Some(())
    }

    /// The fast-forward hint of a mesh holding flits: the gliders', or
    /// those of a plan made now.
    pub(super) fn glide_hint(&self, now: Cycle, polled: impl Fn(usize) -> bool) -> Option<Cycle> {
        let mut plan = self.plan.borrow_mut();
        if plan.refused_now(self) || (!plan.any() && self.plan_into(&mut plan, &polled).is_none()) {
            return Some(now.next());
        }
        match plan.horizon(&polled, &self.source) {
            Horizon::Tail(tail) => Some(Cycle(now.0 + 1 + u64::from(tail))),
            Horizon::Next => {
                // What a plan made now would find: a route toward a tile
                // that is not polled. Until a message is sent or
                // delivered, `must_tick` says so in one look.
                plan.refused = Some(self.messages_key());
                Some(now.next())
            }
            Horizon::Never => None,
        }
    }

    /// Advances the mesh over the cycles `[from, to)` exactly as ticking
    /// it through them would, given that the caller polls the `polled`
    /// tiles' ejection buffers every one of those cycles, no other, and
    /// sends nothing: every message moves as a conveyor (see the module
    /// docs) and the mesh's counters, `active_cycles` included, move as
    /// the ticks would have moved them. Unless the mesh already glides,
    /// the gliders are planned first; the routers are not written.
    ///
    /// The window must end by [`MeshNetwork::next_activity`]`(from − 1,
    /// polled)`, the first tail's poll or the first cycle a follower
    /// would inject on; a quiescent mesh glides as a no-op over any
    /// window.
    ///
    /// # Panics
    /// Panics if some message is not in clear transit, or if the window
    /// reaches past the poll of a tail or a leader's last flit leaving
    /// its source.
    pub fn glide(&mut self, from: Cycle, to: Cycle, polled: impl Fn(usize) -> bool) {
        if to <= from {
            return;
        }
        // The window's last tick leaves the fault state every earlier
        // one would have: expired slowdowns and holds gone, the rest
        // masked as of that cycle.
        if self.faults.is_some() {
            self.drive_faults(Cycle(to.0 - 1));
        }
        if self.resident_flits == 0 {
            return;
        }
        if !self.plan.get_mut().any() {
            // A refusal only stops hints from trying: the caller's window
            // stands on a plan of its own.
            let mut plan = self.plan.borrow_mut();
            plan.refused = None;
            self.plan_into(&mut plan, &polled)
                .expect("a glide over a mesh not in clear transit");
        }
        let span = to.0 - from.0;
        let t = u32::try_from(span).unwrap_or(u32::MAX);
        let mut moved = Moved::default();
        let plan = self.plan.get_mut();
        for g in &mut plan.all[..plan.len] {
            debug_assert!(!g.polled, "a glide after a poll in the same cycle");
            assert!(
                !g.leads(&self.source) || t <= g.queued_now(),
                "a glide past a leader's last flit leaving its source"
            );
            if !polled(g.to as usize) {
                // Nothing moves toward a tile that does not poll.
                assert!(!g.in_fifos(), "a glide toward a tile that does not poll");
                continue;
            }
            assert!(t <= g.tail, "a glide past the poll of a tail");
            let m = g.advance(t);
            moved.polled += m.polled;
            moved.ejected += m.ejected;
            moved.hops += m.hops;
            set_bit(&mut self.ejection_pending, g.to as usize, g.count[0] > 0);
        }
        self.resident_flits -= moved.polled;
        self.stats.delivered_flits += moved.ejected;
        self.glided_hops += moved.hops;
        self.active_cycles += span;
        self.glided_cycles += span;
    }

    /// [`MeshNetwork::tick`] of a mesh that holds only gliders and their
    /// followers: each glider moves one conveyor cycle. False, with every
    /// glider written back, when a destination held a flit and was not
    /// polled this cycle while that message is still in the routers, or
    /// when a follower would inject its head this cycle: then the mesh is
    /// ticked.
    pub(super) fn coast(&mut self) -> bool {
        let source = &self.source;
        let write_back = self.plan.get_mut().as_slice().iter().any(|g| {
            let missed = !g.polled && g.count[0] > 0 && g.in_fifos();
            missed || g.until(source) == 0 && g.leads(source)
        });
        if write_back {
            self.settle();
            return false;
        }
        let mut moved = Moved::default();
        let plan = self.plan.get_mut();
        for g in &mut plan.all[..plan.len] {
            if std::mem::take(&mut g.polled) {
                // The poll took its flit early; the cycle takes it again.
                g.count[0] += 1;
            } else if g.count[0] > 0 {
                // Wholly in a buffer nobody polled: nothing moves.
                continue;
            }
            let m = g.advance(1);
            moved.ejected += m.ejected;
            moved.hops += m.hops;
            set_bit(&mut self.ejection_pending, g.to as usize, g.count[0] > 0);
        }
        self.stats.delivered_flits += moved.ejected;
        self.glided_hops += moved.hops;
        true
    }

    /// A poll of `tile` while the mesh glides. True when it was a
    /// glider's and took a flit off its count, or found its buffer
    /// empty; false when the buffers answer it: no glider is bound for
    /// `tile`, or this is its tail's poll (the glider is then written
    /// back and leaves; every glider is if it leads followers), or the
    /// second poll in a cycle (every glider is written back).
    pub(super) fn poll_glider(&mut self, tile: usize) -> bool {
        let plan = self.plan.get_mut();
        let Some(k) = plan.bound_for(tile) else {
            return false;
        };
        let g = &mut plan.all[k];
        if g.count[0] == 0 {
            return true;
        }
        // A second poll in a cycle, or the tail's poll of a leader: its
        // first follower injects its head on this cycle's tick.
        if g.polled || g.tail == 0 && g.leads(&self.source) {
            self.settle();
            return false;
        }
        if g.tail == 0 {
            self.glide_one(k);
            let plan = self.plan.get_mut();
            plan.len -= 1;
            if k < plan.len {
                plan.all.swap(k, plan.len);
            }
            return false;
        }
        g.polled = true;
        g.count[0] -= 1;
        let emptied = g.count[0] == 0;
        self.resident_flits -= 1;
        if emptied {
            set_bit(&mut self.ejection_pending, tile, false);
        }
        true
    }

    /// Called by [`MeshNetwork::send`] before it queues a message from
    /// `tile` for `to`: true when the mesh keeps gliding with it, which
    /// it may while the mesh glides or holds nothing (and may glide at
    /// all). Queued behind a glider still injecting from `tile`, the
    /// message is a *follower*, inert in the source queue until that
    /// glider's last flit has left it, whatever its destination. At an
    /// empty source queue it starts out as a glider when no message but
    /// a follower is bound for its destination, its route meets none of
    /// the gliders', and there is room for one more: the glider is then
    /// written in place, and [`MeshNetwork::admit`] finishes it.
    /// Otherwise false, with every glider written back.
    pub(super) fn admits(&mut self, tile: usize, to: usize, flits: u32) -> bool {
        let gliding = self.plan.get_mut().any();
        if !gliding && (self.resident_flits > 0 || !self.may_glide()) {
            return false;
        }
        let dest = self.routers[to].coord();
        let admitted = if self.source[tile].flits > 0 {
            let gliders = self.plan.get_mut().as_slice();
            gliders
                .iter()
                .any(|g| g.queued > 0 && usize::from(g.route.start) == tile && g.queued_now() > 0)
        } else {
            self.bound[to] == 0
                && flits <= u32::from(u16::MAX)
                && self.routers[to].credits(PortDir::Local) > 0
                && {
                    let mut plan = self.plan.borrow_mut();
                    let len = plan.len;
                    let (gliders, rest) = plan.all.split_at_mut(len);
                    rest.first_mut().is_some_and(|fresh| {
                        self.glider(fresh, 0, tile, LOCAL, dest, 0, true).is_some()
                            && !gliders.iter().any(|g| fresh.meets(g))
                    })
                }
        };
        if gliding && !admitted {
            self.settle();
        }
        admitted
    }

    /// Finishes the glider [`MeshNetwork::admits`] wrote for the message
    /// just queued in `slot`, `flits` long: its route is empty, so its
    /// tail is polled once it has crossed it and every flit has
    /// followed.
    pub(super) fn admit(&mut self, slot: u32, flits: u32) {
        let plan = self.plan.get_mut();
        let g = &mut plan.all[plan.len];
        plan.len += 1;
        debug_assert!(
            g.route.fifos().all(|(t, i, _)| self.routers[t].len(i) == 0),
            "an admitted route holds a flit"
        );
        let m = g.fifos;
        (g.slot, g.queued, g.front) = (slot, flits, m);
        g.count[m as usize] = flits as u16;
        g.tail = m + flits - 1;
    }

    /// Writes every glider into the routers and ends the glide: the mesh
    /// is ticked from here as it would have been. For any caller about to
    /// read or change the buffers.
    pub(super) fn settle(&mut self) {
        for k in 0..self.plan.get_mut().len {
            self.glide_one(k);
        }
        self.plan.get_mut().len = 0;
    }

    /// Writes glider `k` into the routers as it is now: every FIFO,
    /// credit, owner and round-robin pointer on its anchor route, the
    /// source queue and the ejection buffer. Its counters have moved
    /// already.
    fn glide_one(&mut self, k: usize) {
        let g = &self.plan.get_mut().all[k];
        let (slot, to, m, t, dest) = (g.slot, g.to as usize, g.fifos as usize, g.moved, g.dest);
        if m == 0 {
            // Wholly ejected: polls, none of them the tail's.
            for _ in usize::from(g.count[0])..self.ejection[to].len() {
                self.ejection[to].pop_front();
                self.routers[to].refill_credit(PortDir::Local);
            }
            return;
        }
        let route = g.route;
        // What the source still holds, and where the head and the tail
        // are now (the head moves freely, a position a cycle; one
        // polled on this cycle has left).
        let queued = g.queued_now();
        let local = u32::from(g.count[m]) - queued;
        let injected = g.queued - queued;
        let head = (g.head && g.front >= t)
            .then(|| (g.front - t) as usize)
            .filter(|&h| h > 0 || !g.polled);
        let tail = (1..=m).rev().find(|&q| g.count[q] > 0).unwrap_or(0);
        let (lo, ejected) = (g.front.saturating_sub(t) as usize, u32::from(g.count[0]));
        let flit = |q: usize, n: u32, k: u32| FlitHandle {
            slot,
            dest,
            kind: kind(
                head == Some(q) && k == 0,
                q == tail && k + 1 == n && queued == 0,
            ),
        };
        // From the first FIFO down to the lowest position a flit can be
        // at now, then the ejection buffer. Each buffer's credit moves by
        // what its pops returned and its pushes spent (a source is not
        // credited).
        let port = usize::from(route.port);
        let mut feeder = (port != LOCAL).then(|| {
            let up = self.neighbor_idx[route.start as usize][port];
            (usize::from(up), usize::from(OPPOSITE[port]))
        });
        let mut rearmost = None;
        self.unlist(slot);
        for (q, (tile, input, out)) in (lo.max(1)..=m).rev().zip(route.fifos()) {
            let n = if q == m {
                local
            } else {
                u32::from(self.plan.get_mut().all[k].count[q])
            };
            let router = &mut self.routers[tile];
            let before = i32::from(router.len(input));
            if tail < q {
                router.release(out, input);
            } else {
                let passed = head.is_none_or(|h| h < q);
                router.set_route(input, if passed { out as u8 } else { NO_PORT });
            }
            // A FIFO empty at the anchor and now (most of a fresh
            // message's route) holds and owes nothing, but may still be
            // a source-fed segment's first hop.
            if before > 0 || n > 0 {
                router.reset_input(input, n as usize, |k| flit(q, n, k as u32));
                let idle = router.is_idle();
                set_bit(&mut self.active, tile, !idle);
                if let Some((up, o)) = feeder.filter(|_| before != n as i32) {
                    self.routers[up].shift_credits(o, before - n as i32);
                }
            }
            self.streaming[tile] &= !(1 << input);
            if n > 0 && rearmost.is_none() {
                rearmost = Some((tile, input));
            }
            feeder = Some((tile, out));
        }
        if lo == 0 {
            let ejection = &mut self.ejection[to];
            let before = ejection.len() as i32;
            ejection.clear();
            ejection.extend((0..ejected).map(|k| flit(0, ejected, k)));
            set_bit(&mut self.ejection_pending, to, ejected > 0);
            self.routers[to].shift_credits(LOCAL, before - ejected as i32);
        }
        if injected > 0 {
            let s = route.start as usize;
            let source = &mut self.source[s];
            source.front.left -= injected;
            source.front.fresh = false;
            source.flits -= injected as usize;
            if source.flits == 0 {
                set_bit(&mut self.source_pending, s, false);
            }
            if source.front.left == 0 {
                // Its last flit has left: its first follower moves up.
                if let Some(next) = source.behind.pop_front() {
                    source.front = next;
                    self.move_up(s);
                }
            }
        }
        if let Some((tile, input)) = rearmost {
            self.waiting.push(slot);
            self.worms[slot as usize] = Worm {
                at: self.waiting.len() as u32 - 1,
                tail_tile: tile as u16,
                tail_port: input as u8,
                state: WormState::Waiting,
            };
        }
    }

    /// Takes worm `slot` off whichever list holds it, its segment's hops
    /// left for the caller to unmark.
    fn unlist(&mut self, slot: u32) {
        let Worm { at, state, .. } = self.worms[slot as usize];
        let at = at as usize;
        match state {
            WormState::Out => {}
            WormState::Waiting | WormState::Blocked => {
                self.waiting.swap_remove(at);
                if let Some(&moved) = self.waiting.get(at) {
                    self.worms[moved as usize].at = at as u32;
                }
            }
            WormState::Streaming => {
                self.segs.swap_remove(at);
                if let Some(moved) = self.segs.get(at) {
                    self.worms[moved.slot as usize].at = at as u32;
                }
            }
        }
        self.worms[slot as usize] = Worm::OUT;
    }

    /// The FIFOs of the anchor route of the glider bound for `to` (each
    /// one's tile, input and output), if one is: what its write-back
    /// writes besides `to`'s ejection buffer. Empty for a message wholly
    /// in that buffer.
    #[cfg(test)]
    pub(super) fn glider_route(&self, to: usize) -> Option<Vec<(usize, usize, usize)>> {
        let plan = self.plan.borrow();
        let g = &plan.all[plan.bound_for(to)?];
        Some(if g.fifos == 0 {
            Vec::new()
        } else {
            g.route.fifos().collect()
        })
    }

    /// Messages that follow a glider: while the mesh glides, every one
    /// queued behind another.
    #[cfg(test)]
    pub(super) fn followers(&self) -> usize {
        if self.plan.borrow().any() {
            self.queued_behind
        } else {
            0
        }
    }

    /// Conveyor cycles until the first follower would inject its head,
    /// if any follows a glider.
    #[cfg(test)]
    pub(super) fn source_exit(&self) -> Option<u32> {
        let plan = self.plan.borrow();
        let leaders = plan.as_slice().iter().filter(|g| g.leads(&self.source));
        leaders.map(Glider::queued_now).min()
    }

    /// Flits in `tile`'s source queue and ejection buffer, as the
    /// gliders have them now (a follower's are all still queued).
    pub(super) fn glided_depths(&self, tile: usize) -> (usize, usize) {
        let (mut source, mut ejection) = (self.source[tile].flits, self.ejection[tile].len());
        for g in self.plan.borrow().as_slice() {
            if g.to as usize == tile {
                ejection = usize::from(g.count[0]);
            }
            if g.queued > 0 && usize::from(g.route.start) == tile {
                source -= (g.queued - g.queued_now()) as usize;
            }
        }
        (source, ejection)
    }
}

/// Sets or clears tile `tile`'s bit in a per-tile mask.
#[inline]
fn set_bit(mask: &mut [u64], tile: usize, on: bool) {
    let bit = 1 << (tile % 64);
    if on {
        mask[tile / 64] |= bit;
    } else {
        mask[tile / 64] &= !bit;
    }
}

/// Runs `t` conveyor cycles over a message's flit counts by position
/// (`count[0]` the ejection buffer, the last the first FIFO with its
/// source queue; nothing below `front`): every occupied position passes
/// one flit to the one below, and position 0 is polled. While a position
/// below the last holds two or more, cycle by cycle; then in closed
/// form, since the positions below the last just shift.
fn advance(count: &mut [u16], front: usize, t: u32) {
    let last = count.len() - 1;
    let (mut lo, mut left) = (front, t as usize);
    while left > 0 && count[lo..last].iter().any(|&n| n > 1) {
        lo = lo.saturating_sub(1);
        for q in lo..=last {
            let above = q < last && count[q + 1] > 0;
            count[q] = count[q] - u16::from(count[q] > 0) + u16::from(above);
        }
        left -= 1;
    }
    if left == 0 {
        return;
    }
    let feeding = count[last] as usize;
    for q in lo.saturating_sub(left)..last {
        let p = q + left;
        count[q] = if p < last {
            count[p]
        } else {
            u16::from(p - last < feeding)
        };
    }
    count[last] = count[last].saturating_sub(u16::try_from(left).unwrap_or(u16::MAX));
}
