//! Gliding through clear transit: the mesh advanced over cycles in which
//! nothing else acts, without ticking it.
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
//! cycle. [`MeshNetwork::glide`] steps a message whose flits are bunched
//! further ahead cycle by cycle on that count array until they are not,
//! shifts the rest, and writes the result back — every FIFO, credit,
//! owner and round-robin pointer on the route, the source queue and the
//! ejection buffer — with the counters a stepped run would have moved.
//! It never crosses the poll of a tail: that delivers a message, and the
//! delivery is the caller's next activity. `reference.rs` glides random
//! prefixes of these windows beside the flit-at-a-time mesh stepped
//! through them.

use sim_core::bits::set_bits;
use sim_core::time::Cycle;

use super::{kind, MeshNetwork, Worm, WormState, LOCAL, OPPOSITE};
use crate::router::{FlitHandle, PortDir, NO_PORT};
use crate::topology::Coord;

/// Port indices, as [`PortDir::index`] numbers them.
const NORTH: usize = 0;
const SOUTH: usize = 1;
const EAST: usize = 2;
const WEST: usize = 3;

/// The most messages a glide considers. A mesh holding more is busy, and
/// the clear-path test refuses it before it walks a route.
const MAX_GLIDERS: usize = 8;

/// The most FIFOs on a route a glide models (a route across a mesh more
/// than 16 tiles each way is ticked).
const MAX_FIFOS: usize = 32;

/// An XY route as tile-index arithmetic: from input `port` of tile
/// `start`, `along_x` hops of `x_step` to tile `turn`, then `along_y`
/// hops of `y_step`, leaving each hop by `*_out` and entering the next
/// by `*_in`.
#[derive(Debug, Clone, Copy)]
struct Route {
    start: u32,
    turn: u32,
    along_x: u32,
    along_y: u32,
    x_step: i32,
    y_step: i32,
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
        let index = |c: Coord| u32::from(c.y) * u32::from(width) + u32::from(c.x);
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
            along_x: dx.unsigned_abs(),
            along_y: dy.unsigned_abs(),
            x_step: dx.signum(),
            y_step: dy.signum() * i32::from(width),
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
        let last = self.along_x + self.along_y;
        let mut tile = self.start as i32;
        (0..=last).map(move |j| {
            let input = if j == 0 {
                self.port
            } else if j <= self.along_x {
                self.x_in
            } else {
                self.y_in
            };
            let (out, step) = if j < self.along_x {
                (self.x_out, self.x_step)
            } else if j < last {
                (self.y_out, self.y_step)
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
        let d = tile as i32 - self.start as i32;
        if d == 0 {
            return input == usize::from(self.port);
        }
        if (1..=self.along_x as i32).contains(&(d * self.x_step)) {
            return input == usize::from(self.x_in);
        }
        let d = tile as i32 - self.turn as i32;
        self.y_step != 0
            && d % self.y_step == 0
            && (1..=self.along_y as i32).contains(&(d / self.y_step))
            && input == usize::from(self.y_in)
    }
}

/// One live message, as a glide sees it.
#[derive(Debug, Clone, Copy)]
struct Glider {
    slot: u32,
    /// Its remaining route, from the first FIFO that holds any of it;
    /// meaningless for a message wholly in its destination's ejection
    /// buffer.
    route: Route,
    /// The route's corners, for a quick test of two routes apart.
    start: Coord,
    dest: Coord,
    /// FIFOs on that route, the first one's and one a hop: the first
    /// one's position. 0 for a message wholly in its destination's
    /// ejection buffer.
    fifos: u32,
    /// Flits in the first FIFO, and in the source queue behind it.
    local: u32,
    queued: u32,
    /// Position of its frontmost flit, and whether that is its head.
    front: u32,
    head: bool,
    /// Cycles from the next one until its tail is polled.
    tail: u32,
    /// Whether its destination polls (always, while it is in a FIFO).
    polled: bool,
}

impl Glider {
    const NONE: Glider = Glider {
        slot: 0,
        route: Route::NONE,
        start: Coord::new(0, 0),
        dest: Coord::new(0, 0),
        fifos: 0,
        local: 0,
        queued: 0,
        front: 0,
        head: false,
        tail: 0,
        polled: false,
    };

    /// True when this message and `other` need a FIFO in common. (Two
    /// bound for one ejection buffer never get this far: the mesh counts
    /// them, see [`MeshNetwork::must_tick`].)
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
}

/// The live messages of a mesh in clear transit, in a fixed array so
/// that asking allocates nothing, under the `plan_key` they were found
/// under: the plan [`MeshNetwork::next_activity`] makes for the
/// [`MeshNetwork::glide`] that follows it.
#[derive(Debug)]
pub(super) struct Gliders {
    key: Option<[u64; 3]>,
    /// The messages sent and the slab slots free when a plan last
    /// failed: until a message is sent or delivered, contention that
    /// stopped one plan is taken to stop the next, and none is tried.
    refused: Option<[u64; 2]>,
    len: usize,
    all: [Glider; MAX_GLIDERS],
}

impl Gliders {
    pub(super) const NONE: Gliders = Gliders {
        key: None,
        refused: None,
        len: 0,
        all: [Glider::NONE; MAX_GLIDERS],
    };

    fn as_slice(&self) -> &[Glider] {
        &self.all[..self.len]
    }

    /// True when a plan failed and no message was sent or delivered
    /// since.
    fn refused_now(&self, net: &MeshNetwork) -> bool {
        self.refused == Some(net.messages_key())
    }

    fn holds(&self, slot: u32) -> bool {
        self.as_slice().iter().any(|g| g.slot == slot)
    }

    /// Adds `g`; `None` when the array is full.
    fn push(&mut self, g: Glider) -> Option<()> {
        *self.all.get_mut(self.len)? = g;
        self.len += 1;
        Some(())
    }

    /// How many cycles from the next one the first tail is polled on,
    /// or `None` when no message sits at a tile that polls.
    pub(super) fn horizon(&self) -> Option<u32> {
        self.as_slice()
            .iter()
            .filter(|g| g.polled)
            .map(|g| g.tail)
            .min()
    }
}

impl MeshNetwork {
    fn tile_at(&self, at: Coord) -> usize {
        usize::from(at.y) * usize::from(self.config.topology.width()) + usize::from(at.x)
    }

    /// Counters that every move of a flit changes — a send, a poll, a
    /// tick of a mesh that holds one, a glide — so a plan made under
    /// them still holds while they stand.
    pub(super) fn plan_key(&self) -> [u64; 3] {
        [
            self.stats.injected_messages,
            self.resident_flits,
            self.active_cycles,
        ]
    }

    /// True when the mesh holds a flit and, as one look at its counters
    /// tells, will not glide: it may not glide at all, two messages share
    /// a source queue or a destination, it holds more worms than a glide
    /// considers, or no message was sent or delivered since a plan last
    /// failed. Then [`MeshNetwork::next_activity`] is the next cycle,
    /// whatever the caller polls.
    #[must_use]
    pub fn must_tick(&self) -> bool {
        self.resident_flits > 0 && (self.crowded() || self.plan.borrow().refused_now(self))
    }

    /// The counters' half of [`MeshNetwork::must_tick`].
    fn crowded(&self) -> bool {
        !self.may_glide()
            || self.queued_behind > 0
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

    /// Plans a glide into `out`: every live message as a glider, the
    /// plan keyed to the mesh as it stands, or `None` unless all of them
    /// are in clear transit (`polled` says which tiles poll every cycle)
    /// — then `out` holds no plan. The cheap refusals come first, so a
    /// busy mesh fails before any buffer on a route is read: those of
    /// [`MeshNetwork::must_tick`], then a message that shares its
    /// ejection buffer, then two routes that meet.
    pub(super) fn plan_into(
        &self,
        out: &mut Gliders,
        polled: &impl Fn(usize) -> bool,
    ) -> Option<()> {
        out.key = None;
        out.len = 0;
        if self.crowded() || out.refused_now(self) {
            return None;
        }
        out.refused = Some(self.messages_key());
        // Messages still injecting, from their source's Local input.
        for word in 0..self.source_pending.len() {
            for bit in set_bits(self.source_pending[word]) {
                let tile = word * 64 + bit;
                let run = self.source[tile].front;
                out.push(self.glider(run.slot, tile, LOCAL, run.dest, run.left, run.fresh)?)?;
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
            out.push(self.glider(slot, tile, port, dest, 0, false)?)?;
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
                out.push(Glider {
                    slot: first.slot,
                    dest: first.dest,
                    tail: ejection.len() as u32 - 1,
                    head: first.kind.is_head(),
                    polled: polled(tile),
                    ..Glider::NONE
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
        out.key = Some(self.plan_key());
        out.refused = None;
        Some(())
    }

    /// Message `slot` as a glider, its remaining route starting at input
    /// `port` of `tile` toward `dest`, with `queued` flits still in the
    /// source queue there (the next of them its head while `fresh`); its
    /// buffers are not read yet (`read_route`). `None` for a route longer
    /// than a glide models.
    fn glider(
        &self,
        slot: u32,
        tile: usize,
        port: usize,
        dest: Coord,
        queued: u32,
        fresh: bool,
    ) -> Option<Glider> {
        let start = self.routers[tile].coord();
        let fifos = 1 + start.distance(dest);
        (fifos as usize <= MAX_FIFOS).then(|| Glider {
            slot,
            route: Route::new(start, port, dest, self.config.topology.width()),
            start,
            dest,
            fifos,
            queued,
            head: fresh,
            polled: true,
            ..Glider::NONE
        })
    }

    /// Reads the buffers on `g`'s route into it: where its flits are and
    /// when its tail is polled. `None` unless its destination polls and
    /// no FIFO on the route holds another message's flit at its front or
    /// is full where a flit could still enter.
    fn read_route(&self, g: &mut Glider, polled: &impl Fn(usize) -> bool) -> Option<()> {
        let to = self.tile_at(g.dest);
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
            behind += u32::from(n);
            if behind > 0 && (n > 0 || j == 0) {
                tail = tail.max(fifos - j + behind);
            }
        }
        let ejection = &self.ejection[to];
        if let Some(f) = ejection.front() {
            if f.slot != slot {
                return None;
            }
            front = Some((0, f.kind.is_head()));
            behind += ejection.len() as u32;
            tail = tail.max(behind);
        }
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

    /// Advances the mesh over the cycles `[from, to)` exactly as ticking
    /// it through them would, given that the caller polls the `polled`
    /// tiles' ejection buffers every one of those cycles, no other, and
    /// sends nothing: every message moves as a conveyor (see the module
    /// docs) and the mesh's counters, `active_cycles` included, move as
    /// the ticks would have moved them. A worm whose FIFOs the window
    /// changed then waits for the next tick's walk to find its segment
    /// again; one that streamed through them as it was — each FIFO's
    /// count the same, its head gone and its tail still queued — keeps
    /// its segment.
    ///
    /// The window must end by [`MeshNetwork::next_activity`]`(from − 1,
    /// polled)`, the first tail's poll; a quiescent mesh glides as a
    /// no-op over any window.
    ///
    /// # Panics
    /// Panics if some message is not in clear transit, or if the window
    /// reaches past the poll of a tail.
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
        // The plan the hint just made, unless anything moved or changed
        // its mind since.
        let planned = {
            let plan = self.plan.borrow();
            plan.key == Some(self.plan_key())
                && self.may_glide()
                && plan
                    .as_slice()
                    .iter()
                    .all(|g| g.polled == polled(self.tile_at(g.dest)))
        };
        if !planned {
            // A refusal only stops hints from trying: the caller's window
            // stands on a plan of its own.
            let mut plan = self.plan.borrow_mut();
            plan.refused = None;
            self.plan_into(&mut plan, &polled)
                .expect("a glide over a mesh not in clear transit");
        }
        let span = to.0 - from.0;
        let t = match self.plan.borrow().horizon() {
            Some(tail) => {
                assert!(span <= u64::from(tail), "a glide past the poll of a tail");
                span as u32
            }
            // Nothing can move: every message waits at a tile that does
            // not poll.
            None => 0,
        };
        let len = self.plan.borrow().len;
        for k in 0..len {
            let g = self.plan.borrow().all[k];
            self.glide_one(&g, t);
        }
        self.active_cycles += span;
        self.glided_cycles += span;
    }

    /// Moves one message `t` cycles along its route.
    fn glide_one(&mut self, g: &Glider, t: u32) {
        let to = self.tile_at(g.dest);
        if g.fifos == 0 {
            // Wholly ejected: `t` polls, none of them the tail's.
            if g.polled {
                for _ in 0..t {
                    self.ejection[to].pop_front();
                    self.routers[to].refill_credit(PortDir::Local);
                }
                self.resident_flits -= u64::from(t);
            }
            return;
        }
        let m = g.fifos as usize;
        // Flits by position, the first FIFO's counting its source queue.
        let mut count = [0u32; MAX_FIFOS + 1];
        count[0] = self.ejection[to].len() as u32;
        for (q, (tile, input, _)) in (1..m).rev().zip(g.route.fifos().skip(1)) {
            count[q] = u32::from(self.routers[tile].len(input));
        }
        count[m] = g.local + g.queued;
        let tally = |count: &[u32]| {
            count[..=m]
                .iter()
                .enumerate()
                .fold((0u64, 0u64), |(flits, hops), (q, &n)| {
                    (flits + u64::from(n), hops + q as u64 * u64::from(n))
                })
        };
        let (flits, distance) = tally(&count);
        let ejected = u64::from(count[0]);
        let before = count;
        advance(&mut count[..=m], g.front as usize, t);
        let (flits_after, distance_after) = tally(&count);

        // What the source still holds, and where the head and the tail
        // end up (the head moves freely, a position a cycle).
        let local = g.local.min(count[m]);
        let queued = count[m] - local;
        let steady = local == g.local
            && queued > 0
            && !(g.head && g.front > 0)
            && count[1..m] == before[1..m];
        let head = (g.head && g.front >= t).then(|| (g.front - t) as usize);
        let tail = (1..=m).rev().find(|&q| count[q] > 0).unwrap_or(0);
        let flit = |q: usize, n: u32, k: u32| FlitHandle {
            slot: g.slot,
            dest: g.dest,
            kind: kind(
                head == Some(q) && k == 0,
                q == tail && k + 1 == n && queued == 0,
            ),
        };
        // From the first FIFO down to the lowest position a flit can be
        // at now, then the ejection buffer. Each buffer's credit moves by
        // what its pops returned and its pushes spent (a source is not
        // credited).
        let lo = g.front.saturating_sub(t) as usize;
        let port = usize::from(g.route.port);
        let mut feeder = (port != LOCAL).then(|| {
            let up = self.neighbor_idx[g.route.start as usize][port];
            (usize::from(up), usize::from(OPPOSITE[port]))
        });
        let mut rearmost = None;
        if !steady {
            self.unlist(g.slot);
        }
        // A steady worm's FIFOs stand as they are.
        let rewrite = if steady { m + 1 } else { lo.max(1) }..=m;
        for (q, (tile, input, out)) in rewrite.rev().zip(g.route.fifos()) {
            let n = if q == m { local } else { count[q] };
            let router = &mut self.routers[tile];
            let before = i32::from(router.len(input));
            router.reset_input(input, n as usize, |k| flit(q, n, k as u32));
            if tail < q {
                router.release(out, input);
            } else {
                let passed = head.is_none_or(|h| h < q);
                router.set_route(input, if passed { out as u8 } else { NO_PORT });
            }
            let bit = 1 << (tile % 64);
            if router.is_idle() {
                self.active[tile / 64] &= !bit;
            } else {
                self.active[tile / 64] |= bit;
            }
            self.streaming[tile] &= !(1 << input);
            if let Some((up, o)) = feeder.filter(|_| before != n as i32) {
                self.routers[up].shift_credits(o, before - n as i32);
            }
            if n > 0 && rearmost.is_none() {
                rearmost = Some((tile, input));
            }
            feeder = Some((tile, out));
        }
        if lo == 0 {
            let ejection = &mut self.ejection[to];
            let (before, n) = (ejection.len() as i32, count[0]);
            ejection.clear();
            ejection.extend((0..n).map(|k| flit(0, n, k)));
            let bit = 1 << (to % 64);
            if n > 0 {
                self.ejection_pending[to / 64] |= bit;
            } else {
                self.ejection_pending[to / 64] &= !bit;
            }
            self.routers[to].shift_credits(LOCAL, before - n as i32);
        }
        if g.queued > 0 {
            let s = g.route.start as usize;
            let injected = g.queued - queued;
            let source = &mut self.source[s];
            source.front.left -= injected;
            source.front.fresh &= injected == 0;
            source.flits -= injected as usize;
            if source.flits == 0 {
                self.source_pending[s / 64] &= !(1 << (s % 64));
            }
        }
        // A flit's hops are the positions it went down; the ones that
        // reached position 0 were delivered.
        self.resident_flits -= flits - flits_after;
        self.stats.delivered_flits += (flits - ejected) - (flits_after - u64::from(count[0]));
        self.glided_hops += distance - distance_after;
        let worm = &mut self.worms[g.slot as usize];
        if steady {
            // A blocked worm whose window let it move was not blocked.
            if worm.state == WormState::Blocked {
                worm.state = WormState::Waiting;
            }
            return;
        }
        *worm = match rearmost {
            Some((tile, input)) => {
                self.waiting.push(g.slot);
                Worm {
                    at: self.waiting.len() as u32 - 1,
                    tail_tile: tile as u16,
                    tail_port: input as u8,
                    state: WormState::Waiting,
                }
            }
            None => Worm::OUT,
        };
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
}

/// Runs `t` conveyor cycles over a message's flit counts by position
/// (`count[0]` the ejection buffer, the last the first FIFO with its
/// source queue; nothing below `front`): every occupied position passes
/// one flit to the one below, and position 0 is polled. While a position
/// below the last holds two or more, cycle by cycle; then in closed
/// form, since the positions below the last just shift.
fn advance(count: &mut [u32], front: usize, t: u32) {
    let last = count.len() - 1;
    let (mut lo, mut left) = (front, t as usize);
    while left > 0 && count[lo..last].iter().any(|&n| n > 1) {
        lo = lo.saturating_sub(1);
        for q in lo..=last {
            let above = q < last && count[q + 1] > 0;
            count[q] = count[q] - u32::from(count[q] > 0) + u32::from(above);
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
            u32::from(p - last < feeding)
        };
    }
    count[last] = count[last].saturating_sub(left as u32);
}
