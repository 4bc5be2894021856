//! The occupancy-mask tick against the scan-everything tick it
//! replaced.
//!
//! [`ScanEverything`] keeps the pre-mask ejection pass, tile pass,
//! PCIe flush test and `next_activity` verbatim: every slot bit-tested,
//! every tile asked `has_work()`, every tile consulted for the wake
//! hint and `downcast` for the flush.
//! The proptest below builds one generated NIC three times — chain
//! length, load, 0 / 2 / 32 vNICs, a seeded fault plan with the
//! watchdog armed, a program hot-swap that shuts the pipeline gate
//! mid-run, a PCIe coalescer on a flush timer, a 6×6 or a 72-slot mesh
//! placed back to front so slot order is not mesh order — and drives
//! the three in lock-step: the oracle stepped, the mask NIC stepped,
//! the mask NIC fast-forwarded. `next_activity` and the NIC's books
//! must agree on every cycle a NIC executes, and the trace ring, the
//! metrics JSON and the conservation report at the end.
//!
//! Mutants this file kills, each applied alone, debug and release
//! (docs/PERF.md §10 has the table with the first failing assertion):
//! no bit set on `accept`; no mark from `tile_mut`; bit cleared before
//! `tick_into`; pending bits visited in mesh order; early-out at
//! `now + 2`; a workless stalled tile hinting its stall's end; the
//! flush firing on a non-multiple after a jump; the flush deadline
//! drifting; the flush hint returning a stale deadline.
//! One survives because it is equivalent: `skip_idle` replaying
//! marked-but-workless tiles (after a tick every set bit holds work,
//! and a workless tile replays nothing).

use engines::engine::{Offload, Output};
use engines::pcie::PcieEngine;
use faults::{FaultPlan, FaultUniverse};
use packet::message::{Message, MessageKind};
use proptest::prelude::*;
use rmt::table::{MatchKey, TableEntry};
use sim_core::rng::SimRng;

use super::*;
use crate::nic::datapath::Leaving;
use crate::nic::TileSlot;
use packet::store::{Entry, ExitKind};

/// The NIC as it ticked before the occupancy mask.
struct ScanEverything {
    nic: PanicNic,
}

impl ScanEverything {
    fn new(mut nic: PanicNic) -> ScanEverything {
        // What the oracle shares with the NIC under test — the fault
        // and tenancy planes, `is_quiescent` — reads the mask;
        // saturated (nothing here ever clears a bit) it scans
        // everything too.
        for i in 0..nic.tiles.len() {
            nic.occupied[i / 64] |= 1 << (i % 64);
        }
        ScanEverything { nic }
    }

    /// `PanicNic::tick` as of 56120d7, steps 1, 3 and 3b verbatim.
    #[allow(clippy::needless_range_loop)] // verbatim beats idiomatic here
    fn tick(&mut self, now: Cycle) {
        let nic = &mut self.nic;
        if nic.faults.is_some() {
            nic.drive_fault_plane(now);
        }
        if nic.tenancy.is_some() {
            nic.stats.layer.tenancy += u64::from(nic.tenancy_holds_work());
            nic.drive_tenancy(now);
        }

        // 1. Ejections.
        for i in 0..nic.tile_ids.len() {
            let t = nic.slot_noc_tile[i] as usize;
            if nic.network.ejection_pending_word(t / 64) & (1 << (t % 64)) == 0 {
                continue;
            }
            let store = &mut nic.store;
            match &mut nic.tiles[i] {
                TileSlot::Engine(tile) => {
                    if tile.rx_ready() {
                        if let Some(msg) = nic.network.poll_ejected_at(t, now, store) {
                            tile.accept_in(msg, store, now);
                        }
                    }
                }
                TileSlot::RmtPortal => {
                    if !nic.pipeline_gated {
                        if let Some(msg) = nic.network.poll_ejected_at(t, now, store) {
                            nic.pipeline.submit(msg);
                        }
                    }
                }
            }
        }

        // 2. Pipeline.
        nic.step_pipeline(now);

        // 3. Tiles.
        let mut emits = std::mem::take(&mut nic.emit_scratch);
        let mut any_engine = false;
        let mut any_sched = false;
        for i in 0..nic.tile_ids.len() {
            let id = nic.tile_ids[i];
            match &mut nic.tiles[i] {
                TileSlot::Engine(tile) => {
                    if !tile.has_work() {
                        continue;
                    }
                    any_engine = true;
                    any_sched |= tile.queue_depth() > 0;
                    tile.tick_in(now, &mut nic.store, &mut emits);
                }
                TileSlot::RmtPortal => continue,
            }
            for emit in emits.drain(..) {
                nic.handle_emit(id, emit, now);
            }
        }
        nic.emit_scratch = emits;
        nic.stats.layer.engines += u64::from(any_engine);
        nic.stats.layer.sched += u64::from(any_sched);

        // 3b. PCIe coalescing flush timer.
        let flush = nic.config.pcie_flush_interval;
        if flush > 0 && now.0 > 0 && now.0.is_multiple_of(flush) {
            for i in 0..nic.tiles.len() {
                let pcie = nic.tiles[i]
                    .as_engine_mut()
                    .and_then(|tile| tile.offload_as_mut::<PcieEngine>());
                if let Some(msg) = pcie.and_then(PcieEngine::flush) {
                    let msg = nic.store.put(msg, Entry::Interrupt);
                    nic.exit(Leaving::Originated(msg), ExitKind::Host, now);
                }
            }
        }

        // 4. Mesh.
        nic.network.tick(now);
    }

    /// `PanicNic::next_activity` and `pcie_flush_next_activity` as of
    /// 56120d7, with the mesh told which tiles the ejection pass polls
    /// and the tenancy term the NIC's own (it wakes for a credit an
    /// in-plane loss has yet to return; the mask plays no part in it).
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let nic = &self.nic;
        let polled = polled_tiles(&nic.tiles, &nic.noc_tile_slot, nic.pipeline_gated);
        let mut hint = Cycle::earliest(
            nic.network.next_activity(now, polled),
            nic.pipeline.next_activity(now),
        );
        for (_, t) in nic.engine_tiles() {
            hint = Cycle::earliest(hint, t.next_activity(now));
        }
        hint = Cycle::earliest(hint, nic.fault_plane_next_activity(now));
        let flush = nic.config.pcie_flush_interval;
        let pending = flush > 0
            && nic.engine_tiles().any(|(_, t)| {
                t.offload_as::<PcieEngine>()
                    .is_some_and(|p| p.pending() > 0)
            });
        hint = Cycle::earliest(hint, pending.then(|| Cycle((now.0 / flush + 1) * flush)));
        Cycle::earliest(hint, nic.tenancy_next_activity(now))
    }
}

/// Turns the frame it is handed into a PCIe event for `pcie` — the DMA
/// engine's completion path, minus the DMA.
#[derive(Debug)]
struct Doorbell {
    pcie: EngineId,
}

impl Offload for Doorbell {
    fn name(&self) -> &str {
        "doorbell"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn class(&self) -> EngineClass {
        EngineClass::Dma
    }
    fn service_time(&self, _msg: &Message) -> Cycles {
        Cycles(1)
    }
    fn process_into(&mut self, msg: &mut Message, _now: Cycle, out: &mut Vec<Output>) {
        msg.kind = MessageKind::PcieEvent;
        out.push(Output::ForwardTo(self.pcie));
    }
}

/// Flows are spread over this many chain variants by IPv4 ident.
const VARIANTS: u64 = 4;
const HORIZON: u64 = 5000;

/// One generated scenario.
#[derive(Debug, Clone)]
struct Case {
    /// 9×8 with all 72 tiles placed (two mask words) instead of 6×6.
    big: bool,
    chain_len: usize,
    /// Arrivals are `burst` frames every `gap` cycles until `until`.
    gap: u64,
    burst: u64,
    until: u64,
    vnics: u16,
    /// A fault plan, armed together with the watchdog.
    faults: Option<u64>,
    swap_at: Option<u64>,
    flush: u64,
}

/// What a built [`Case`] exposes to its driver.
struct Built {
    nic: PanicNic,
    tracer: Tracer,
    ports: [EngineId; 2],
    /// The program the hot-swap installs (same shape, chains rotated).
    second_program: RmtProgram,
}

impl Case {
    fn random(rng: &mut SimRng) -> Case {
        let gap = [2, 9, 40, 250, 900][rng.gen_range(5) as usize];
        Case {
            big: rng.gen_range(4) == 0,
            chain_len: 1 + rng.gen_range(4) as usize,
            gap,
            burst: 1 + rng.gen_range(3),
            until: 1500 + rng.gen_range(2000),
            vnics: [0, 2, 32][rng.gen_range(3) as usize],
            faults: (rng.gen_range(3) != 0).then(|| rng.next_u64()),
            swap_at: (rng.gen_range(2) == 0).then(|| 200 + rng.gen_range(2500)),
            flush: [0, 97, 300][rng.gen_range(3) as usize],
        }
    }

    /// Chains rotate over the offload pool by `variant + epoch`; the
    /// last variant ends at the doorbell, the others on a wire port.
    fn program(
        &self,
        epoch: usize,
        ports: [EngineId; 2],
        offloads: &[EngineId],
        bell: EngineId,
    ) -> RmtProgram {
        let slack = SlackExpr::Const(400);
        let mut table = Table::new(
            "by-flow",
            MatchKind::Ternary(vec![packet::phv::Field::IpIdent]),
            Action::noop(),
        );
        for v in 0..VARIANTS {
            let offset = (v as usize + epoch) * offloads.len() / VARIANTS as usize;
            let mut hops: Vec<EngineId> = (0..self.chain_len)
                .map(|k| offloads[(offset + k) % offloads.len()])
                .collect();
            hops.push(if v == VARIANTS - 1 {
                bell
            } else {
                ports[v as usize % 2]
            });
            table.insert(TableEntry {
                key: MatchKey::Ternary(vec![(v, VARIANTS - 1)]),
                priority: 0,
                action: Action::named(
                    "chain",
                    hops.into_iter()
                        .map(|engine| Primitive::PushHop { engine, slack })
                        .collect(),
                ),
            });
        }
        ProgramBuilder::new("generated", ParseGraph::standard(6379))
            .stage(table)
            .build()
    }

    fn build(&self) -> Built {
        let topology = if self.big {
            Topology::mesh(9, 8)
        } else {
            Topology::mesh6x6()
        };
        let mut b = PanicNic::builder(NicConfig {
            topology,
            pcie_flush_interval: self.flush,
            ..NicConfig::small()
        });
        // Back to front: slot k sits on the k-th tile from the end, so
        // ascending slot order is descending mesh order.
        let mut coords: Vec<Coord> = topology.coords().collect();
        coords.reverse();
        let mut coords = coords.into_iter();
        let mut at = || coords.next().expect("a free tile");

        let ports = [0, 1].map(|i| {
            b.engine_at(
                at(),
                Box::new(engines::mac::MacEngine::new(
                    format!("eth{i}"),
                    sim_core::time::Bandwidth::gbps(100),
                    sim_core::time::Freq::mhz(500),
                )),
                TileConfig::default(),
            )
        });
        let n_offloads = if self.big { 64 } else { 12 };
        let offloads: Vec<EngineId> = (0..n_offloads)
            .map(|i| {
                let service = Cycles([0, 3, 12][i % 3]);
                b.engine_at(
                    at(),
                    Box::new(NullOffload::new(
                        format!("off{i}"),
                        EngineClass::Asic,
                        service,
                    )),
                    TileConfig::default(),
                )
            })
            .collect();
        // (The id a PCIe engine is given only seeds its interrupts'
        // message ids.)
        let pcie = b.engine_at(
            at(),
            Box::new(PcieEngine::new("pcie", 0x7c1e, 3)),
            TileConfig::default(),
        );
        let bell = b.engine_at(at(), Box::new(Doorbell { pcie }), TileConfig::default());
        for _ in 0..4 {
            let _ = b.rmt_portal_at(at());
        }
        b.program(self.program(0, ports, &offloads, bell));
        if self.faults.is_some() {
            b.watchdog(chaos_watchdog());
        }
        if self.vnics > 0 {
            let vnics = (1..=self.vnics)
                .map(|t| {
                    let spec =
                        tenancy::VNicSpec::new(TenantId(t), format!("vnic{t}"), u64::from(t % 3))
                            .credit_quota(4);
                    if t % 4 == 1 {
                        spec.rate(tenancy::RateSpec::one_per(24))
                    } else {
                        spec
                    }
                })
                .collect();
            b.tenancy(tenancy::TenancyConfig::new(vnics).shared_credits(24));
        }
        // The linter would refuse some of what the generator draws (a
        // chain of four on a busy 6×6); the runtime does not care.
        let mut nic = b.build_unvalidated();
        assert_eq!(nic.occupied.len(), 1 + usize::from(self.big), "mask words");
        if let Some(seed) = self.faults {
            let mut engines = offloads.clone();
            engines.extend([bell, pcie]);
            let universe = FaultUniverse::new(engines, Cycle(HORIZON * 3 / 4));
            nic.enable_faults(FaultPlan::generate(seed, &universe, 10));
        }
        let tracer = Tracer::ring(1 << 17);
        nic.attach_tracer(&tracer);
        Built {
            nic,
            tracer,
            ports,
            second_program: self.program(1, ports, &offloads, bell),
        }
    }

    fn arrival_due(&self, now: Cycle) -> bool {
        now.0 < self.until && now.0.is_multiple_of(self.gap)
    }

    /// The first cycle after `now` with outside input.
    fn next_input(&self, now: Cycle) -> Cycle {
        let arrival = Cycle((now.0 / self.gap + 1) * self.gap);
        let arrival = Some(arrival).filter(|a| a.0 < self.until);
        let swap = self.swap_at.map(Cycle).filter(|&s| s > now);
        Cycle::earliest(arrival, swap).unwrap_or(Cycle(HORIZON))
    }
}

/// The management plane's half of a program hot-swap, polled before
/// every executed tick: shut the gate at `swap_at`, swap once the
/// pipeline has drained, reopen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Swap {
    Waiting,
    Draining,
    Done,
}

impl Swap {
    fn poll(&mut self, case: &Case, nic: &mut PanicNic, second: &RmtProgram, now: Cycle) {
        if *self == Swap::Waiting && case.swap_at == Some(now.0) {
            nic.set_pipeline_gate(true);
            *self = Swap::Draining;
        }
        if *self == Swap::Draining && nic.pipeline_drained() {
            nic.swap_program(second.clone());
            nic.set_pipeline_gate(false);
            *self = Swap::Done;
        }
    }
}

/// Counters cheap enough to compare every cycle, so a divergence is
/// reported where it starts rather than at the end of the run.
fn books(nic: &PanicNic) -> ([u64; 9], usize, usize, bool) {
    let c = nic.conservation();
    (
        [
            c.tx_wire,
            c.host_deliveries,
            c.host_fallback,
            c.consumed,
            c.reissued,
            nic.stats().failed,
            c.duplicates,
            c.unrouted,
            nic.network().lost_messages(),
        ],
        nic.downed_engines().len(),
        nic.wire_tx.len() + nic.host_rx.len(),
        nic.is_quiescent(),
    )
}

/// Everything a run leaves behind.
fn artifacts(nic: &PanicNic, tracer: &Tracer) -> (Vec<trace::Event>, String, String, bool) {
    let mut m = MetricsRegistry::new();
    nic.export_metrics(&mut m);
    (
        tracer.ring_snapshot().expect("ring tracer"),
        m.to_json(),
        nic.conservation().to_string(),
        nic.faults_settled(),
    )
}

/// Names the generated case when an assertion in [`run`] fails.
struct Blame<'a>(&'a Case);

impl Drop for Blame<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {:?}", self.0);
        }
    }
}

fn run(case: &Case) {
    let _blame = Blame(case);
    let (stepped, skipping, oracle) = (case.build(), case.build(), case.build());
    let (ports, second_program) = (stepped.ports, stepped.second_program);
    let (mut stepped, stepped_tracer) = (stepped.nic, stepped.tracer);
    let (mut skipping, skipping_tracer) = (skipping.nic, skipping.tracer);
    let (mut oracle, oracle_tracer) = (ScanEverything::new(oracle.nic), oracle.tracer);
    let mut swaps = [Swap::Waiting; 3];
    let mut factory = FrameFactory::for_nic_port(0);
    let mut sent = 0u16;
    // The next cycle the fast-forwarded NIC executes.
    let mut resume = Cycle(0);
    let mut skipped = 0u64;

    for now in (0..HORIZON).map(Cycle) {
        let executes = now == resume;
        let mut frames = Vec::new();
        if case.arrival_due(now) {
            for _ in 0..case.burst {
                // One tenant id past the configured vNICs: the
                // untenanted path of a tenanted NIC.
                let tenant = TenantId(1 + sent % (case.vnics + 1));
                frames.push((factory.min_frame(sent, 80), tenant));
                sent = sent.wrapping_add(1);
            }
        }
        prop_assert!(executes || frames.is_empty(), "input inside a skipped span");

        let nics = [
            Some(&mut stepped),
            executes.then_some(&mut skipping),
            Some(&mut oracle.nic),
        ];
        for (nic, swap) in nics.into_iter().zip(&mut swaps) {
            let Some(nic) = nic else { continue };
            for (k, (frame, tenant)) in frames.iter().enumerate() {
                nic.rx_frame(ports[k % 2], frame.clone(), *tenant, Priority::Normal, now);
            }
            swap.poll(case, nic, &second_program, now);
        }

        stepped.tick(now);
        oracle.tick(now);
        let hint = oracle.next_activity(now);
        let at = now.0;
        prop_assert_eq!(
            stepped.next_activity(now),
            hint,
            "hint, stepped, cycle {at}"
        );
        prop_assert_eq!(
            books(&stepped),
            books(&oracle.nic),
            "books, stepped, cycle {at}"
        );

        if executes {
            skipping.tick(now);
            prop_assert_eq!(
                skipping.next_activity(now),
                hint,
                "hint, fast-forwarded, cycle {at}"
            );
            prop_assert_eq!(
                books(&skipping),
                books(&oracle.nic),
                "books, fast-forwarded, cycle {at}"
            );
            // `drive`'s jump, bounded by the next outside input; a
            // swap waiting for the drain is polled, so never skipped.
            let next = now.next();
            let polled = swaps[1] == Swap::Draining;
            let wake = if polled { Some(next) } else { hint };
            resume = wake
                .unwrap_or(Cycle(HORIZON))
                .min(case.next_input(now))
                .max(next);
            if resume > next {
                skipping.skip_idle(next, resume.min(Cycle(HORIZON)));
                skipped += resume.0.min(HORIZON) - next.0;
            }
        }
    }

    let expected = artifacts(&oracle.nic, &oracle_tracer);
    for (name, nic, tracer) in [
        ("stepped", &stepped, &stepped_tracer),
        ("fast-forwarded", &skipping, &skipping_tracer),
    ] {
        let got = artifacts(nic, tracer);
        prop_assert_eq!(&got.0, &expected.0, "{} trace ring", name);
        prop_assert_eq!(&got.1, &expected.1, "{} metrics", name);
        prop_assert_eq!(&got.2, &expected.2, "{} conservation", name);
        prop_assert_eq!(got.3, expected.3, "{} faults settled", name);
    }
    // (A coalesced interrupt the flush timer originates is a sink with
    // no source, so the identity is only claimed with the timer off.)
    if oracle.nic.is_quiescent() && expected.3 && case.flush == 0 {
        prop_assert!(stepped.conservation().holds(), "{}", expected.2);
    }
    // A light, fault-free case is mostly gaps: the test is void if the
    // fast-forwarded NIC never actually jumped.
    if case.gap >= 900 && case.faults.is_none() && case.vnics == 0 {
        prop_assert!(skipped > HORIZON / 2, "only {} cycles skipped", skipped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under any generated load, tenancy, fault plan, hot-swap and mesh
    /// size, stepped and fast-forwarded, the NIC that ticks only what
    /// is occupied is indistinguishable from the one that scanned
    /// everything.
    #[test]
    fn occupancy_mask_matches_the_scan_everything_nic(seed in any::<u64>()) {
        run(&Case::random(&mut SimRng::new(seed)));
    }
}

#[test]
fn occupancy_mask_pinned_cases() {
    // The corners the mutants live in, so killing them does not depend
    // on what 96 seeds happen to draw.
    let base = Case {
        big: false,
        chain_len: 2,
        gap: 250,
        burst: 2,
        until: 3000,
        vnics: 0,
        faults: None,
        swap_at: None,
        flush: 97,
    };
    let cases = [
        base.clone(),
        Case {
            big: true,
            gap: 9,
            burst: 3,
            ..base.clone()
        },
        Case {
            big: true,
            vnics: 32,
            faults: Some(7),
            swap_at: Some(700),
            ..base.clone()
        },
        Case {
            gap: 2,
            vnics: 2,
            faults: Some(0xC0FFEE),
            flush: 300,
            ..base.clone()
        },
        Case {
            gap: 40,
            chain_len: 4,
            faults: Some(3),
            swap_at: Some(1200),
            ..base.clone()
        },
        Case {
            gap: 900,
            faults: Some(11),
            flush: 0,
            ..base
        },
    ];
    cases.iter().for_each(run);
}

#[test]
fn occupancy_mask_work_handed_in_through_tile_mut_is_not_stranded() {
    // `tile_mut` is public and hands out `&mut EngineTile`; whatever
    // the caller puts there must still be ticked.
    let (mut nic, eth, off, _) = tiny_nic();
    let msg = Message::builder(packet::message::MessageId(1), MessageKind::EthernetFrame)
        .payload(FrameFactory::for_nic_port(0).min_frame(1, 80))
        .tenant(TenantId(1))
        .source(eth)
        .build();
    // Counted as if it had come through the front door, so the
    // conservation identity has a source for it.
    let (tile, store) = nic.tile_and_store(off).unwrap();
    let msg = store.put(msg, Entry::Injected);
    tile.accept_in(msg, store, Cycle(0));
    assert!(!nic.is_quiescent());
    assert_eq!(nic.next_activity(Cycle(0)), Some(Cycle(1)));

    let (end, skipped) = nic.run_ff(Cycle(0), 1000);
    assert!(nic.is_quiescent() && skipped > 0);
    assert_eq!(nic.next_activity(end), None);
    // Its chain was empty, so it fell back to the pipeline, was chained
    // through `off` again and left on the wire.
    assert_eq!(nic.tile(off).unwrap().stats().processed, 2);
    assert_eq!(nic.take_wire_tx().len(), 1);
    let c = nic.conservation();
    assert!(c.holds(), "{c}");
}

#[test]
fn occupancy_mask_stalled_idle_tile_gives_up_its_bit() {
    // A workless tile owes no wake, stalled or not: the stall's own
    // tick releases the bit the fault plane's `tile_mut` set.
    let (mut nic, _, off, _) = tiny_nic();
    nic.enable_faults(FaultPlan::parse("stall:1@10+30").unwrap());
    let slot = nic.tile_index(off).unwrap();
    assert_eq!(nic.next_activity(Cycle(0)), Some(Cycle(10)), "the plan");
    nic.run(Cycle(0), 11);
    assert_eq!(nic.occupied[slot / 64] & (1 << (slot % 64)), 0);
    assert_eq!(nic.tile(off).unwrap().next_activity(Cycle(10)), None);
    assert_eq!(nic.next_activity(Cycle(10)), None);
}

#[test]
fn occupancy_mask_flush_hint_is_the_next_multiple_wherever_it_is_asked() {
    // One doorbell-bound frame (ident 3 picks the last chain variant)
    // leaves one event in the coalescer; the flush timer is then the
    // only wake the NIC has.
    let case = Case {
        big: false,
        chain_len: 1,
        gap: 1,
        burst: 1,
        until: 0,
        vnics: 0,
        faults: None,
        swap_at: None,
        flush: 300,
    };
    let Built { mut nic, ports, .. } = case.build();
    let mut factory = FrameFactory::for_nic_port(0);
    for _ in 0..3 {
        let _ = factory.min_frame(0, 80);
    }
    let frame = factory.min_frame(0, 80);
    // An idle clock may jump over any number of deadlines: nothing was
    // pending, so nothing was missed, and the timer re-arms silently.
    let now = nic.run(Cycle(0), 10);
    assert_eq!(nic.next_activity(now), None);
    nic.skip_idle(now, Cycle(1234));
    nic.rx_frame(ports[0], frame, TenantId(1), Priority::Normal, Cycle(1234));
    let now = nic.run(Cycle(1234), 200);
    assert!(nic.is_quiescent(), "the event is absorbed, not in flight");
    assert_eq!(nic.conservation().host_deliveries, 0);
    // Right after a tick the stored deadline answers; asked about a
    // cycle the clock has not reached, the hint still has to be the
    // first multiple after *that* cycle.
    assert_eq!(nic.next_activity(Cycle(now.0 - 1)), Some(Cycle(1500)));
    assert_eq!(nic.next_activity(Cycle(1499)), Some(Cycle(1500)));
    assert_eq!(nic.next_activity(Cycle(1500)), Some(Cycle(1800)));
    assert_eq!(nic.next_activity(Cycle(4321)), Some(Cycle(4500)));
    nic.skip_idle(now, Cycle(1500));
    nic.run(Cycle(1500), 1);
    assert_eq!(nic.conservation().host_deliveries, 1, "flushed at 1500");
    assert_eq!(nic.next_activity(Cycle(1500)), None);

    // The one way a clock crosses a deadline and finds an event on the
    // far side: the coalescer's tile is stalled mid-service, the jump
    // to the stall's end passes 1800 with nothing pending, and the
    // event lands at 1805. That is not a flush cycle; 2100 is.
    for _ in 0..3 {
        let _ = factory.min_frame(0, 80);
    }
    let frame = factory.min_frame(0, 80);
    nic.rx_frame(ports[1], frame, TenantId(1), Priority::Normal, Cycle(1501));
    let pcie = nic.tile_ids[nic.pcie_slots[0] as usize];
    let mut now = Cycle(1501);
    while !nic.tile(pcie).unwrap().is_busy() {
        now = nic.run(now, 1);
    }
    assert!(now < Cycle(1800));
    nic.tile_mut(pcie).unwrap().fault_stall(now, Cycle(1805));
    let (now, skipped) = nic.run_ff(now, 1806 - now.0);
    assert!(skipped > 0 && now == Cycle(1806));
    assert_eq!(
        nic.conservation().host_deliveries,
        1,
        "1805 is not a flush cycle"
    );
    assert_eq!(nic.next_activity(Cycle(1805)), Some(Cycle(2100)));
    nic.run_ff(now, 2101 - now.0);
    assert_eq!(nic.conservation().host_deliveries, 2, "flushed at 2100");
}
