//! The output-centric switch allocator [`Router::plan`] replaced, kept
//! as the oracle of a differential test.
//!
//! [`RefRouter::plan_into`] is the previous planner's body unchanged —
//! it scans the five outputs in order and, for each, picks the wormhole
//! owner or arbitrates among the heads that want it, masking inputs an
//! earlier output already claimed — over the previous representation
//! (`Option<usize>` owners, `bool` masks, wide counters). The proptest
//! below builds random router states in both representations and steps
//! them side by side.

use std::collections::VecDeque;

use proptest::prelude::*;
use sim_core::rng::SimRng;

use super::*;

/// What the previous planner returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RefPlan {
    winner: [Option<u8>; PortDir::COUNT],
    stalled: [bool; PortDir::COUNT],
}

/// The previous router state, input FIFOs as plain queues.
#[derive(Debug)]
struct RefRouter {
    coord: Coord,
    topology: Topology,
    q: [VecDeque<FlitHandle>; PortDir::COUNT],
    credit: [u32; PortDir::COUNT],
    credit_init: [u32; PortDir::COUNT],
    out_owner: [Option<usize>; PortDir::COUNT],
    rr: [usize; PortDir::COUNT],
    forwarded: u64,
    blocked: [bool; PortDir::COUNT],
}

impl RefRouter {
    fn head_route(&self, i: usize) -> Option<PortDir> {
        self.q[i].front().and_then(|head| {
            head.kind
                .is_head()
                .then(|| match self.topology.route_xy(self.coord, head.dest) {
                    Some(d) => PortDir::from_direction(d),
                    None => PortDir::Local,
                })
        })
    }

    fn plan_into(&mut self, plan: &mut RefPlan, record_stalls: bool) {
        plan.winner = [None; PortDir::COUNT];
        plan.stalled = [false; PortDir::COUNT];

        // Inputs not yet claimed by an earlier output this cycle.
        let mut avail: u32 = (1 << PortDir::COUNT) - 1;
        // want[o]: bitmask of inputs whose front flit is a *head*
        // routing to output o. Body/tail fronts belong to a wormhole
        // owned by some output (ownership persists until tail) and
        // only move via that ownership, never via arbitration. Pops
        // are deferred to the commit phase, so fronts are stable for
        // the whole plan: one eager pass over the inputs replaces a
        // per-output rescan.
        let mut want: [u32; PortDir::COUNT] = [0; PortDir::COUNT];
        for i in 0..PortDir::COUNT {
            if !self.q[i].is_empty() {
                if let Some(out) = self.head_route(i) {
                    want[out.index()] |= 1 << i;
                }
            }
        }
        // `o` indexes five parallel per-output arrays, not just `want`.
        #[allow(clippy::needless_range_loop)]
        for o in 0..PortDir::COUNT {
            // No link: this output idles.
            if self.credit_init[o] == 0 {
                continue;
            }
            if self.credit[o] == 0 || self.blocked[o] {
                // Out of credits (or fault-masked): record whether
                // traffic actually wanted this output, so the cycle
                // shows up as a credit stall rather than an idle port.
                if record_stalls {
                    plan.stalled[o] = match self.out_owner[o] {
                        Some(i) => !self.q[i].is_empty(),
                        None => (want[o] & avail) != 0,
                    };
                }
                continue;
            }

            // Wormhole continuation: the owner input sends its next
            // flit. Otherwise arbitrate round-robin from rr[o] among
            // the inputs whose head flit routes here; the 5-bit rotate
            // finds the first candidate at or after rr[o] without a
            // scan, so an uncontended output costs a couple of ALU ops.
            let winner = match self.out_owner[o] {
                Some(i) => (avail & (1 << i) != 0 && !self.q[i].is_empty()).then_some(i),
                None => {
                    let b = want[o] & avail;
                    if b == 0 {
                        None
                    } else {
                        let p = self.rr[o] as u32;
                        let rot = ((b >> p) | (b << (PortDir::COUNT as u32 - p)))
                            & ((1 << PortDir::COUNT) - 1);
                        Some((self.rr[o] + rot.trailing_zeros() as usize) % PortDir::COUNT)
                    }
                }
            };

            let Some(i) = winner else { continue };
            // Peek the winning flit for wormhole bookkeeping; the pop
            // itself is deferred to the commit phase.
            let kind = self.q[i].front().expect("winner input non-empty").kind;
            avail &= !(1 << i);

            // Update wormhole ownership.
            if kind.is_tail() {
                self.out_owner[o] = None;
                // Advance round-robin past the input that just finished.
                self.rr[o] = (i + 1) % PortDir::COUNT;
            } else {
                self.out_owner[o] = Some(i);
            }

            self.credit[o] -= 1;
            plan.winner[o] = Some(i as u8);
            self.forwarded += 1;
        }
    }
}

/// A router under test beside its oracle, with the upstream side of
/// every input: what is left of the message currently arriving there
/// (a link delivers a message's flits contiguously).
struct Pair {
    new: Router,
    old: RefRouter,
    arriving: [VecDeque<FlitHandle>; PortDir::COUNT],
    next_slot: u32,
}

impl Pair {
    /// A random router state, identical in both representations:
    /// random tile (edges and corners included), `rr`, fault masks and
    /// credits; each input either idle, queueing whole messages, or
    /// mid-wormhole — its head already forwarded, the output it won
    /// still owned, and any prefix of the remaining flits buffered.
    fn random(rng: &mut SimRng) -> Pair {
        let topology = Topology::mesh(1 + rng.gen_range(4) as u8, 1 + rng.gen_range(4) as u8);
        let coord = topology.coord(rng.gen_range(topology.nodes() as u64) as usize);
        let config = RouterConfig {
            input_buffer_flits: 1 + rng.gen_range(6) as usize,
            ejection_buffer_flits: 1 + rng.gen_range(6) as usize,
        };
        let new = Router::new(coord, topology, config);
        let old = RefRouter {
            coord,
            topology,
            q: Default::default(),
            credit: new.credit_init.map(u32::from),
            credit_init: new.credit_init.map(u32::from),
            out_owner: [None; PortDir::COUNT],
            rr: [0; PortDir::COUNT],
            forwarded: 0,
            blocked: [false; PortDir::COUNT],
        };
        let mut pair = Pair {
            new,
            old,
            arriving: Default::default(),
            next_slot: 0,
        };
        for p in 0..PortDir::COUNT {
            let rr = rng.gen_range(PortDir::COUNT as u64);
            pair.new.rr[p] = rr as u8;
            pair.old.rr[p] = rr as usize;
            let credit = rng.gen_range(u64::from(pair.old.credit_init[p]) + 1);
            pair.new.credit[p] = credit as u16;
            pair.old.credit[p] = credit as u32;
            pair.set_blocked(p, rng.gen_range(4) == 0);
            // An input on a missing link never sees a flit.
            if p != PortDir::Local.index() && pair.old.credit_init[p] == 0 {
                continue;
            }
            if rng.gen_range(3) == 0 {
                // Mid-wormhole: the head went through earlier.
                let mut rest = pair.message(rng);
                let o = pair.new.route(rest[0].dest);
                let winnable = pair.old.credit_init[o] > 0 && pair.old.out_owner[o].is_none();
                if winnable && rest.len() > 1 {
                    rest.pop_front();
                    pair.old.out_owner[o] = Some(p);
                    pair.new.in_route[p] = o as u8;
                    pair.new.owned |= 1 << o;
                    pair.arriving[p] = rest;
                }
            }
            for _ in 0..rng.gen_range(config.input_buffer_flits as u64 + 1) {
                pair.deliver(rng, p);
            }
        }
        pair
    }

    /// A fresh message of 1–4 flits to a random tile — now and then one
    /// just past the East or South edge, so heads also ask edge routers
    /// for links that do not exist.
    fn message(&mut self, rng: &mut SimRng) -> VecDeque<FlitHandle> {
        let topology = self.old.topology;
        let dest = if rng.gen_range(16) == 0 {
            Coord::new(topology.width(), topology.height())
        } else {
            topology.coord(rng.gen_range(topology.nodes() as u64) as usize)
        };
        let n = 1 + rng.gen_range(4) as u32;
        self.next_slot += 1;
        (0..n)
            .map(|seq| FlitHandle {
                slot: self.next_slot,
                dest,
                kind: FlitKind::at(seq, n),
            })
            .collect()
    }

    /// Delivers the next flit arriving on input `p` to both routers.
    fn deliver(&mut self, rng: &mut SimRng, p: usize) {
        if self.arriving[p].is_empty() {
            self.arriving[p] = self.message(rng);
        }
        let flit = self.arriving[p].pop_front().expect("just refilled");
        self.new.accept(PortDir::ALL[p], flit);
        self.old.q[p].push_back(flit);
    }

    fn set_blocked(&mut self, p: usize, blocked: bool) {
        self.new.set_fault_blocked(PortDir::ALL[p], blocked);
        self.old.blocked[p] = blocked;
    }

    /// Plans one cycle on both, compares decisions and state, commits.
    fn step(&mut self, cycle: u32) {
        let plan = self.new.plan();
        let mut oracle = RefPlan::default();
        self.old.plan_into(&mut oracle, true);
        let seen = RefPlan {
            winner: std::array::from_fn(|o| {
                (plan.granted & (1 << o) != 0).then_some(plan.winner[o])
            }),
            stalled: std::array::from_fn(|o| plan.stalled & (1 << o) != 0),
        };
        prop_assert_eq!(seen, oracle, "cycle {}", cycle);
        let mut out_owner = [None; PortDir::COUNT];
        let mut owned = 0;
        for (i, &o) in self.new.in_route.iter().enumerate() {
            if o != NO_PORT {
                prop_assert!(owned & (1 << o) == 0, "output owned twice");
                out_owner[usize::from(o)] = Some(i);
                owned |= 1 << o;
            }
        }
        prop_assert_eq!(self.new.owned, owned);
        prop_assert_eq!(out_owner, self.old.out_owner, "cycle {} out_owner", cycle);
        prop_assert_eq!(self.new.credit.map(u32::from), self.old.credit);
        prop_assert_eq!(
            self.new.rr.map(usize::from),
            self.old.rr,
            "cycle {} rr",
            cycle
        );
        prop_assert_eq!(self.new.forwarded, self.old.forwarded);
        for i in oracle.winner.into_iter().flatten().map(usize::from) {
            prop_assert_eq!(Some(self.new.commit_pop(i)), self.old.q[i].pop_front());
        }
        for (i, q) in self.old.q.iter().enumerate() {
            prop_assert_eq!(self.new.nonempty & (1 << i) != 0, !q.is_empty());
        }
    }

    /// What the rest of the mesh does to a router between two plans:
    /// flits arrive, downstream buffers drain, faults come and go.
    fn perturb(&mut self, rng: &mut SimRng) {
        for p in 0..PortDir::COUNT {
            let linked = self.old.credit_init[p] > 0;
            let is_input = linked || p == PortDir::Local.index();
            if is_input && self.new.input_space(PortDir::ALL[p]) > 0 && rng.gen_range(2) == 0 {
                self.deliver(rng, p);
            }
            if self.old.credit[p] < self.old.credit_init[p] && rng.gen_range(3) == 0 {
                self.new.refill_credit(PortDir::ALL[p]);
                self.old.credit[p] += 1;
            }
            if rng.gen_range(8) == 0 {
                self.set_blocked(p, rng.gen_range(2) == 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// From any reachable router state, the input-centric planner and
    /// the output-centric one it replaced decide the same winners and
    /// stall flags and leave the same credits, owners, round-robin
    /// pointers and forward counts — cycle after cycle.
    #[test]
    fn input_centric_planner_matches_the_output_centric_oracle(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let mut pair = Pair::random(&mut rng);
        for cycle in 0..64 {
            pair.step(cycle);
            pair.perturb(&mut rng);
        }
    }
}
