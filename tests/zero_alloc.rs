//! Steady-state ticks perform **zero heap allocations** (workspace
//! root because the counting `#[global_allocator]` needs `unsafe`,
//! which the library crates forbid; see `docs/PERF.md`).
//!
//! The hot loop was de-allocated in layers — by-value router plans,
//! network-owned tile masks, the NoC's in-flight message slab (flits
//! are 8-byte handles into it), engine `process_into`, and the
//! scenarios' reusable drain buffers — and this test is what keeps it
//! that way: after a warm-up
//! window, every `tick` (and wire drain) of a busy NIC must allocate
//! nothing.
//!
//! ## Warm-up allowlist
//!
//! Allocation during the warm-up window is expected and legitimate:
//!
//! * scratch buffers growing to their steady-state capacity (router
//!   route scratch, network stage buffers, the NIC's wire/host drain
//!   buffers);
//! * the NoC's in-flight slab, its free list and the per-tile source
//!   rings growing to their working set (slots are reused, never
//!   freed, thereafter);
//! * per-tile queue and scheduler storage reaching peak occupancy;
//! * lazily built engine state (e.g. a MAC's first-use histograms).
//!
//! The control endpoint's telemetry step is held to the same standard
//! (`docs/PERF.md` §7): with a live subscription, a `service` call in
//! which no subscribed counter changed allocates nothing, and a busy
//! subscription allocates only in the calls that emit a frame — once,
//! for the frame's bytes.
//!
//! Building a frame allocates by design (fresh payload bytes per frame
//! — that is workload state, not simulator state): exactly twice, the
//! frame buffer and the `Bytes` it freezes into (`docs/PERF.md` §4).
//! The factory call is excluded from the counted region; `rx_frame` is
//! inside it, and `a_frame_costs_two_allocations_ingress_to_exit`
//! counts the factory too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use fabric::{Fabric, FabricBuilder, LinkSpec};
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::message::{Message, Priority, TenantId};
use packet::phv::Field;
use panic_core::nic::{NicBuilder, NicConfig, PanicNic};
use panic_core::scenarios::{ChainScenario, ChainScenarioConfig};
use panic_ctrl::{CtrlEndpoint, CtrlFrame, CtrlRequest};
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::pipeline::PipelineConfig;
use rmt::program::ProgramBuilder;
use rmt::table::{MatchKind, Table};
use sim_core::clock::{drive, Advance, Driven};
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use tenancy::{TenancyConfig, VNicSpec};
use workloads::frames::FrameFactory;

/// Counts allocations (and reallocations) while armed; forwards
/// everything to the system allocator.
struct CountingAlloc;

// The counter is per thread: the tests in this binary run on parallel
// threads, and one test's warm-up must not land in another's counted
// window. `const`-initialised `Cell`s have no lazy init and no
// destructor, so touching them inside `alloc` is safe.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}
/// Debug aid: set `ZERO_ALLOC_PANIC=1` to panic (with a backtrace) at
/// the first counted allocation instead of tallying. Latched once in
/// [`counted`] — reading the environment inside `alloc` would itself
/// allocate.
static PANIC_ON_ALLOC: AtomicBool = AtomicBool::new(false);

/// Tallies one allocation of `size` bytes if this thread is armed.
fn count(size: usize) -> bool {
    let armed = ARMED.get();
    if armed {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + size as u64);
    }
    armed
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if count(layout.size()) && PANIC_ON_ALLOC.load(Ordering::Relaxed) {
            ARMED.set(false);
            panic!("counted allocation of {} bytes", layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counter armed; returns (result,
/// allocations, bytes requested).
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    PANIC_ON_ALLOC.store(
        std::env::var_os("ZERO_ALLOC_PANIC").is_some(),
        Ordering::SeqCst,
    );
    ALLOCS.set(0);
    BYTES.set(0);
    ARMED.set(true);
    let r = f();
    ARMED.set(false);
    (r, ALLOCS.get(), BYTES.get())
}

/// Runs `f` with this thread's counter disarmed, inside or outside a
/// [`counted`] window.
fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = ARMED.replace(false);
    let r = f();
    ARMED.set(was);
    r
}

/// A busy little NIC: two offload hops then back out the port, RMT
/// portal, everything the real scenarios exercise except the fault
/// plane (covered separately below).
fn chain_nic() -> (PanicNic, EngineId) {
    let (b, eth) = chain_builder(Mesh::Small);
    (b.build(), eth)
}

/// The mesh [`chain_builder`] places its four tiles on.
#[derive(Debug, Clone, Copy)]
enum Mesh {
    /// 3×3, tiles in mesh order: the NIC's tile-occupancy mask is one
    /// word and slot order is mesh order.
    Small,
    /// 9×8 with all 72 tiles placed back to front (68 of them offloads
    /// no chain visits): the mask is two words and the ejection pass
    /// must translate mesh order into slot order — through a reused
    /// buffer, or this file's counters see it.
    Wide,
}

/// [`chain_nic`] before `build`, so a test can add a plane to it.
fn chain_builder(mesh: Mesh) -> (NicBuilder, EngineId) {
    let freq = Freq::mhz(500);
    let topology = match mesh {
        Mesh::Small => Topology::mesh(3, 3),
        Mesh::Wide => Topology::mesh(9, 8),
    };
    let mut coords: Vec<_> = topology.coords().collect();
    if matches!(mesh, Mesh::Wide) {
        coords.reverse();
    }
    let mut coords = coords.into_iter();
    let mut at = || coords.next().expect("a free tile");
    let mut b = PanicNic::builder(NicConfig {
        topology,
        width_bits: 64,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 1,
            depth: 3,
            freq,
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine_at(
        at(),
        Box::new(MacEngine::new("eth0", Bandwidth::gbps(100), freq)),
        TileConfig::default(),
    );
    let off0 = b.engine_at(
        at(),
        Box::new(NullOffload::new("off0", EngineClass::Asic, Cycles(2))),
        TileConfig::default(),
    );
    let off1 = b.engine_at(
        at(),
        Box::new(NullOffload::new("off1", EngineClass::Asic, Cycles(3))),
        TileConfig::default(),
    );
    let _ = b.rmt_portal_at(at());
    if matches!(mesh, Mesh::Wide) {
        for (i, coord) in coords.enumerate() {
            let spare = NullOffload::new(format!("spare{i}"), EngineClass::Asic, Cycles(2));
            b.engine_at(coord, Box::new(spare), TileConfig::default());
        }
    }
    b.program(
        ProgramBuilder::new("zero-alloc-chain", ParseGraph::standard(6379))
            .stage(Table::new(
                "route",
                MatchKind::Exact(vec![Field::EthType]),
                Action::named(
                    "chain",
                    vec![
                        Primitive::PushHop {
                            engine: off0,
                            slack: SlackExpr::Const(400),
                        },
                        Primitive::PushHop {
                            engine: off1,
                            slack: SlackExpr::Const(400),
                        },
                        Primitive::PushHop {
                            engine: eth,
                            slack: SlackExpr::Const(800),
                        },
                    ],
                ),
            ))
            .build(),
    );
    (b, eth)
}

const INJECT_EVERY: u64 = 24;
const WARMUP: u64 = 6_000;
const MEASURE: u64 = 6_000;

/// The measured component: the busy NIC plus a periodic injector, one
/// frame every [`INJECT_EVERY`] cycles, driven by the production
/// [`drive`] loop.
struct BusyNic {
    nic: PanicNic,
    eth: EngineId,
    factory: FrameFactory,
    /// Whether building a frame counts toward an armed window.
    count_frames: bool,
    scratch: Vec<Message>,
    delivered: u64,
}

impl BusyNic {
    fn new() -> BusyNic {
        BusyNic::on(Mesh::Small)
    }

    /// The same traffic over `mesh`.
    fn on(mesh: Mesh) -> BusyNic {
        let (b, eth) = chain_builder(mesh);
        BusyNic::over(b.build(), eth)
    }

    /// The injector and wire drain around an already-built NIC.
    fn over(nic: PanicNic, eth: EngineId) -> BusyNic {
        BusyNic {
            nic,
            eth,
            factory: FrameFactory::for_nic_port(0),
            count_frames: false,
            scratch: Vec::new(),
            delivered: 0,
        }
    }
}

impl Driven for BusyNic {
    /// One simulated cycle: build a frame (workload-side allocation,
    /// counted only under `count_frames`), then hand it to the NIC,
    /// tick and drain the wire (all counted when armed).
    fn step(&mut self, now: Cycle) {
        if now.0.is_multiple_of(INJECT_EVERY) {
            let flow = (now.0 % 4096) as u16;
            let frame = if self.count_frames {
                self.factory.min_frame(flow, 80)
            } else {
                uncounted(|| self.factory.min_frame(flow, 80))
            };
            self.nic
                .rx_frame(self.eth, frame, TenantId(1), Priority::Normal, now);
        }
        self.nic.tick(now);
        self.scratch.clear();
        self.nic.drain_wire_tx_into(&mut self.scratch);
        self.delivered += self.scratch.len() as u64;
    }

    fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle)) -> bool {
        if let Some(t) = self.nic.next_activity(now) {
            post(t);
        }
        // The injection clock is a wake source the NIC can't see.
        post(Cycle((now.0 / INJECT_EVERY + 1) * INJECT_EVERY));
        true
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.nic.skip_idle(from, to);
    }
}

/// Warms `busy` up for [`WARMUP`] cycles, then counts allocations over
/// the next [`MEASURE`], advancing the clock with `run`. Returns
/// (allocations, bytes).
fn measure(
    busy: &mut BusyNic,
    mut run: impl FnMut(&mut BusyNic, Cycle, u64) -> (Cycle, u64),
) -> (u64, u64) {
    // Warm-up: scratch buffers, pools, and queues reach steady state
    // (see the module-level allowlist).
    let (now, _) = run(busy, Cycle(0), WARMUP);
    assert!(busy.delivered > 0, "warm-up must reach the wire");
    busy.delivered = 0;

    // Measurement: the same loop, counted.
    let (_, allocs, bytes) = counted(|| run(busy, now, MEASURE));
    assert!(
        busy.delivered > MEASURE / INJECT_EVERY / 2,
        "measured window must stay busy (delivered {})",
        busy.delivered
    );
    (allocs, bytes)
}

/// The headline claim: once warm, a busy steady-state cycle — frames
/// in flight through the mesh, the RMT pipeline, three engines, and
/// the wire drain — performs zero heap allocations. That includes the
/// tile-occupancy mask under the ejection pass, the tile pass and the
/// wake hint: one word on the small mesh, two words and a mesh-order →
/// slot-order translation on the wide one.
#[test]
fn steady_state_tick_allocates_nothing() {
    for mesh in [Mesh::Small, Mesh::Wide] {
        for advance in [Advance::Stepped, Advance::Merged] {
            let (allocs, bytes) = measure(&mut BusyNic::on(mesh), |busy, start, cycles| {
                drive(busy, start, cycles, advance)
            });
            assert_eq!(
                allocs, 0,
                "{mesh:?} {advance:?}: steady-state ticks allocated {allocs} times \
                 ({bytes} bytes) over {MEASURE} cycles — the zero-alloc hot path \
                 has regressed"
            );
        }
    }
}

/// A frame, ingress to exit, with the injection *inside* the counted
/// window: the frame factory allocates twice per frame (the frame
/// buffer, and the `Bytes` it freezes into) and the simulator adds
/// nothing between `rx_frame` and the wire — so the window's count is
/// exactly two per injected frame.
#[test]
fn a_frame_costs_two_allocations_ingress_to_exit() {
    for advance in [Advance::Stepped, Advance::Merged] {
        let mut busy = BusyNic::new();
        busy.count_frames = true;
        let (allocs, bytes) = measure(&mut busy, |busy, start, cycles| {
            drive(busy, start, cycles, advance)
        });
        // The window starts on an injection cycle and is a whole number
        // of injection periods long.
        let frames = MEASURE / INJECT_EVERY;
        assert_eq!(
            allocs,
            2 * frames,
            "{advance:?}: {frames} frames, injection counted, allocated {allocs} \
             times ({bytes} bytes): more than the factory's two per frame"
        );
    }
}

/// Idle ticks are trivially allocation-free too (the cheap case the
/// fast-forward hint machinery usually skips entirely).
#[test]
fn idle_tick_allocates_nothing() {
    let (mut nic, _eth) = chain_nic();
    // Settle construction-time lazies.
    for c in 0..64 {
        nic.tick(Cycle(c));
    }
    let ((), allocs, bytes) = counted(|| {
        for c in 64..1_064 {
            nic.tick(Cycle(c));
        }
    });
    assert_eq!(allocs, 0, "idle ticks allocated {allocs}x / {bytes}B");
}

/// The gap regime: `chain_gap`'s configuration (the 6×6 chain NIC at
/// 0.2 % of line rate) fast-forwarded, its mesh gliding through clear
/// transit between the NIC's events. Each frame costs the factory's two
/// allocations, which `ChainScenario::run` makes inside the counted
/// window; the glides — the plan the hint makes, the count arrays, the
/// worms left to find their segments again — add none.
#[test]
fn gliding_gap_regime_allocates_only_its_frames() {
    let mut s = ChainScenario::new(ChainScenarioConfig {
        chain_len: 2,
        offered_fraction: 0.002,
        seed: 1,
        ..ChainScenarioConfig::default()
    });
    s.run(100_000);
    let counters = |s: &ChainScenario| {
        let nic = s.nic();
        (nic.stats().rx_frames, nic.network().glided_cycles())
    };
    let (frames, glided) = counters(&s);
    let ((), allocs, bytes) = counted(|| s.run(200_000));
    let (frames, glided) = {
        let now = counters(&s);
        (now.0 - frames, now.1 - glided)
    };
    assert!(
        frames >= 100,
        "the window must carry traffic ({frames} frames)"
    );
    assert!(glided > 0, "the window must glide");
    assert_eq!(
        allocs,
        2 * frames,
        "{frames} frames glided through {glided} cycles allocated {allocs} times \
         ({bytes} bytes): more than the factory's two per frame"
    );
}

/// [`chain_builder`] behind a 32-vNIC tenancy plane (the rack member's
/// shape): [`BusyNic`]'s tenant 1 has a vNIC, so every frame parks in
/// its queue and enters the mesh through the release scheduler, beside
/// 31 vNICs with nothing to do.
fn tenanted_builder(mesh: Mesh) -> (NicBuilder, EngineId) {
    let (mut b, eth) = chain_builder(mesh);
    b.tenancy(TenancyConfig::new(
        (1..=32)
            .map(|t| VNicSpec::new(TenantId(t), format!("t{t}"), 1))
            .collect(),
    ));
    (b, eth)
}

/// The tenancy plane keeps the steady state allocation-free, busy tick
/// or idle, stepped or fast-forwarded: vNIC queues and the spreading
/// PIFO reach their working set in warm-up, and neither the implicit-
/// exit reconciliation nor the hint and skip replay touch the heap.
#[test]
fn tenanted_steady_state_allocates_nothing() {
    let cases = [Mesh::Small, Mesh::Wide]
        .into_iter()
        .flat_map(|mesh| [Advance::Stepped, Advance::Merged].map(|advance| (mesh, advance)));
    for (mesh, advance) in cases {
        let (b, eth) = tenanted_builder(mesh);
        let mut busy = BusyNic::over(b.build(), eth);
        let (allocs, bytes) = measure(&mut busy, |busy, start, cycles| {
            drive(busy, start, cycles, advance)
        });
        let tn = busy.nic.tenancy().expect("tenanted");
        let released = tn.ledger(TenantId(1)).expect("vNIC 1").released;
        assert!(
            released >= (WARMUP + MEASURE) / INJECT_EVERY - 1,
            "frames must go through the tenancy plane (released {released})"
        );
        assert_eq!(
            allocs, 0,
            "{mesh:?} {advance:?}: a tenanted NIC allocated {allocs} times \
             ({bytes} bytes) over {MEASURE} steady-state cycles"
        );
    }
}

/// A serial fabric epoch in which nothing crosses costs no allocation:
/// two tenanted members with local traffic in flight, stepped epoch by
/// epoch (member runs, boundary exchange with empty egress queues).
#[test]
fn quiet_fabric_epoch_allocates_nothing() {
    let mut fb = FabricBuilder::new();
    let mut eths = Vec::new();
    for _ in 0..2 {
        let (b, eth) = tenanted_builder(Mesh::Small);
        eths.push((fb.member(b, eth), eth));
    }
    fb.link_pair(0, 1, LinkSpec::new(0, 0));
    let mut fabric: Fabric = fb.build();
    let epoch = fabric.epoch_len().expect("linked fabric has an epoch");
    let mut factory = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    // Two epochs per round, a fresh local frame per member before each
    // (injection is workload-side allocation, uncounted as above).
    let (mut wire, mut delivered) = (Vec::new(), 0);
    let mut round = |fabric: &mut Fabric, now: Cycle| {
        for &(i, eth) in &eths {
            let frame = factory.min_frame((now.0 % 4096) as u16, 80);
            let nic = fabric.member_mut(i);
            nic.rx_frame(eth, frame, TenantId(1), Priority::Normal, now);
            wire.clear();
            nic.drain_wire_tx_into(&mut wire);
            delivered += wire.len() as u64;
        }
        counted(|| fabric.run(now, 2 * epoch))
    };
    for _ in 0..WARMUP / (2 * epoch) {
        (now, _, _) = round(&mut fabric, now);
    }
    let epochs_before = fabric.stats().epochs;
    let (mut allocs, mut bytes) = (0, 0);
    let rounds = MEASURE / (2 * epoch);
    for _ in 0..rounds {
        let (next, a, b) = round(&mut fabric, now);
        (now, allocs, bytes) = (next, allocs + a, bytes + b);
    }
    assert_eq!(fabric.stats().epochs - epochs_before, 2 * rounds);
    assert_eq!(fabric.stats().forwarded, 0, "nothing may cross");
    assert!(
        delivered >= 2 * rounds,
        "local traffic must flow ({delivered})"
    );
    assert_eq!(
        allocs,
        0,
        "{} quiet fabric epochs allocated {allocs} times ({bytes} bytes)",
        2 * rounds
    );
}

/// The tenant with a vNIC (`tenancy.watched.*`); [`BusyNic`]'s tenant 1
/// has none, so its frames bypass the tenancy plane.
const WATCHED: TenantId = TenantId(7);

/// [`chain_nic`] with a one-vNIC tenancy plane, and an endpoint
/// subscribed to `tenancy.` (the subscription already answered).
fn watched_nic() -> (BusyNic, CtrlEndpoint) {
    let (mut b, eth) = chain_builder(Mesh::Small);
    b.tenancy(TenancyConfig::new(vec![VNicSpec::new(
        WATCHED, "watched", 1,
    )]));
    let mut ep = CtrlEndpoint::new(b.to_spec());
    let subscribe = CtrlRequest::Subscribe {
        prefixes: vec!["tenancy.".into()],
    };
    ep.submit(&CtrlFrame::request(0, 1, subscribe).encode());
    (BusyNic::over(b.build(), eth), ep)
}

/// Services `ep` at every cycle boundary of `[start, start + cycles)`
/// with only `service` counted; `inject` offers that cycle's frames
/// first. Returns `(allocations, frames emitted)` per cycle.
fn serviced(
    busy: &mut BusyNic,
    ep: &mut CtrlEndpoint,
    start: u64,
    cycles: u64,
    mut inject: impl FnMut(&mut BusyNic, Cycle),
) -> Vec<(u64, u64)> {
    (start..start + cycles)
        .map(|c| {
            let now = Cycle(c);
            inject(busy, now);
            let ((), allocs, _) = counted(|| ep.service(&mut busy.nic, now));
            let mut frames = 0;
            while ep.poll_response().is_some() {
                frames += 1;
            }
            busy.step(now);
            (allocs, frames)
        })
        .collect()
}

/// Watching a NIC must not cost more than running it: a live
/// `tenancy.` subscription on a busy NIC whose traffic is all another
/// tenant's — no subscribed counter moves — is serviced for
/// [`MEASURE`] cycles without a single allocation and without a frame.
#[test]
fn telemetry_allocates_nothing_while_no_subscribed_counter_changes() {
    let (mut busy, mut ep) = watched_nic();
    // `BusyNic::step` injects tenant 1's frame every INJECT_EVERY.
    let warm = serviced(&mut busy, &mut ep, 0, WARMUP, |_, _| {});
    assert!(busy.delivered > 0, "warm-up must reach the wire");
    let frames: u64 = warm.iter().map(|&(_, f)| f).sum();
    assert_eq!(frames, 2, "the Ok and the baseline frame, nothing after");

    busy.delivered = 0;
    let quiet = serviced(&mut busy, &mut ep, WARMUP, MEASURE, |_, _| {});
    assert!(
        busy.delivered > MEASURE / INJECT_EVERY / 2,
        "NIC stays busy"
    );
    let (allocs, frames) = quiet
        .iter()
        .fold((0, 0), |(a, f), &(da, df)| (a + da, f + df));
    assert_eq!(frames, 0, "no subscribed counter changed");
    assert_eq!(
        allocs, 0,
        "service allocated {allocs} times over {MEASURE} change-free cycles"
    );
}

/// With the watched tenant itself sending, frames flow — and
/// allocation is confined to the service calls that emit one: exactly
/// one each, the frame's buffer, which the cursor's own names and
/// values are written straight into. (The buffer starts at 256 bytes,
/// more than one vNIC's changed counters fill; the outbox is drained
/// every cycle here, so it never grows past its warm-up capacity.)
#[test]
fn busy_telemetry_allocates_only_when_it_emits_a_frame() {
    let (mut busy, mut ep) = watched_nic();
    let eth = busy.eth;
    let offer = |busy: &mut BusyNic, now: Cycle| {
        if now.0.is_multiple_of(50) {
            let frame = busy.factory.min_frame((now.0 % 4096) as u16, 80);
            busy.nic
                .rx_frame(eth, frame, WATCHED, Priority::Normal, now);
        }
    };
    let _ = serviced(&mut busy, &mut ep, 0, WARMUP, offer);
    let run = serviced(&mut busy, &mut ep, WARMUP, MEASURE, offer);
    let emitting = run.iter().filter(|&&(_, f)| f > 0).count() as u64;
    assert!(
        (MEASURE / 50..MEASURE / 2).contains(&emitting),
        "frames on some cycles, not all: {emitting}"
    );
    for (i, &(allocs, frames)) in run.iter().enumerate() {
        assert!(frames <= 1, "one frame per service step");
        assert_eq!(
            allocs, frames,
            "cycle {i}: {allocs} allocations, {frames} frames emitted"
        );
    }
}
