//! The fabric message-id satellite: fleet-wide ids stay unique and
//! monotonic (a) across a member crash and recovery, and (b) when a
//! vNIC is added live through the management plane — the mutation
//! path must never re-run `set_msg_id_base` or otherwise rewind the
//! allocator, so the top 16 bits keep carrying the member index.

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use fabric::{Fabric, FabricBuilder, LinkSpec, PeriodicDriver};
use faults::{FabricFaultConfig, FabricFaultPlan};
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::{Priority, TenantId};
use packet::EngineId;
use panic_core::nic::{NicBuilder, NicConfig, PanicNic};
use panic_core::programs::chain_program;
use panic_ctrl::{CtrlBody, CtrlEndpoint, CtrlFrame, CtrlRequest, CtrlResponse};
use rmt::pipeline::PipelineConfig;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use tenancy::VNicSpec;
use workloads::frames::FrameFactory;

const LATENCY: u64 = 12;
const COUNT: u64 = 30;
const PERIOD: u64 = 90;
/// The tenant added live on member 1.
const LATE: TenantId = TenantId(7);

fn member() -> (NicBuilder, EngineId, EngineId) {
    let freq = Freq::PANIC_DEFAULT;
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(4, 4),
        width_bits: 128,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 2,
            depth: 18,
            freq,
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine(
        Box::new(MacEngine::new("eth", Bandwidth::gbps(100), freq)),
        TileConfig::default(),
    );
    let crc = b.engine(
        Box::new(NullOffload::new("crc", EngineClass::Asic, Cycles(8))),
        TileConfig {
            queue_capacity: 256,
            ..TileConfig::default()
        },
    );
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    (b, eth, crc)
}

/// A 2-member ring with an mcrash of member 1 at cycle 400, plus the
/// spec of member 1 (for its control endpoint) and the shared uplink
/// engine id.
fn crashy_pair() -> (Fabric, panic_verify::NicSpec, EngineId) {
    let mut fb = FabricBuilder::new();
    let mut member1_spec = None;
    let mut uplink = None;
    for i in 0..2usize {
        let (mut b, eth, crc) = member();
        let next = (i + 1) % 2;
        b.program(chain_program(
            &[crc, EngineId::remote(next, crc)],
            EngineId::remote(next, eth),
            Some(5_000),
        ));
        if i == 1 {
            member1_spec = Some(b.to_spec());
        }
        uplink = Some(eth);
        let mi = fb.member(b, eth);
        let mut factory = FrameFactory::for_nic_port(i as u32);
        fb.driver(
            mi,
            Box::new(PeriodicDriver::new(
                (i as u64) * 7,
                PERIOD,
                COUNT,
                move |nic: &mut PanicNic, now: Cycle, k: u64| {
                    nic.rx_frame(
                        eth,
                        factory.min_frame((k % 50) as u16, 80),
                        TenantId(0),
                        Priority::Normal,
                        now,
                    );
                },
            )),
        );
    }
    fb.link_pair(0, 1, LinkSpec::new(0, 0).latency(LATENCY).credits(8));
    let plan = FabricFaultPlan::parse("mcrash:1@400+8").expect("valid plan");
    fb.fault_plane(FabricFaultConfig::new(plan));
    (
        fb.build(),
        member1_spec.expect("two members built"),
        uplink.expect("two members built"),
    )
}

/// Asserts both members' watermarks are monotonic and still carry
/// their member index in the top 16 bits; returns the new watermarks.
fn check_watermarks(fabric: &Fabric, last: [u64; 2]) -> [u64; 2] {
    let mut next = [0u64; 2];
    for i in 0..2 {
        let w = fabric.member(i).msg_id_watermark();
        assert!(
            w >= last[i],
            "member {i} id allocator went backwards: {w:#x} < {:#x}",
            last[i]
        );
        assert_eq!(
            w >> 48,
            i as u64,
            "member {i} watermark {w:#x} lost its member tag"
        );
        next[i] = w;
    }
    next
}

#[test]
fn msg_ids_stay_unique_and_monotonic_across_crash_and_live_add() {
    let (mut fabric, spec1, eth) = crashy_pair();
    let mut ep = CtrlEndpoint::for_member(spec1, 1);
    let mut factory = FrameFactory::for_nic_port(9);

    let mut now = Cycle(0);
    let mut marks = check_watermarks(&fabric, [0, 1 << 48]);
    let before_crash = fabric.member(1).msg_id_watermark();
    let mut added = false;
    let mut late_injected = 0u64;
    for chunk in 0..40u64 {
        now = fabric.run(now, 200);
        marks = check_watermarks(&fabric, marks);

        // Past the crash window (400 + 8 epochs × 12 cycles), member 1
        // is back up: add a vNIC through the management plane, then
        // feed the new tenant so it allocates fresh ids.
        if !added && now.0 >= 1_200 {
            let add = CtrlRequest::AddVnic(VNicSpec::new(LATE, "late", 4).credit_quota(16));
            ep.submit(&CtrlFrame::request(1, 1, add).encode());
            ep.service(fabric.member_mut(1), now);
            match ep.poll_decoded().expect("a response").body {
                CtrlBody::Response(CtrlResponse::Ok { epoch }) => assert_eq!(epoch, 1),
                other => panic!("live add must be admitted, got {other:?}"),
            }
            added = true;
        }
        if added && late_injected < 8 && chunk % 2 == 0 {
            let m1 = fabric.member_mut(1);
            m1.rx_frame(
                eth,
                factory.min_frame((late_injected % 50) as u16, 80),
                LATE,
                Priority::Normal,
                now,
            );
            late_injected += 1;
        }
    }
    assert!(added, "the live add must have happened mid-run");

    // Drain everything, including the fault plane's deferred work.
    fabric.drain(now).expect("the crashy pair drains");
    marks = check_watermarks(&fabric, marks);

    // The crash really happened and recovered — this run exercises
    // the allocator across the full Draining → Down → Up cycle.
    let stats = fabric.chaos_stats().expect("fault plane armed");
    assert_eq!(stats.member_crashes, 1);
    assert_eq!(stats.member_recoveries, 1);

    // The crash + recovery allocated more ids on member 1 (its driver
    // backlog burst in), all still tagged — never rewound to the base.
    assert!(
        marks[1] > before_crash,
        "member 1 must keep allocating after recovery"
    );
    // The live tenant's frames allocated ids on member 1 too, and its
    // traffic reached a wire.
    let tn = fabric
        .member(1)
        .tenancy()
        .expect("live add enabled tenancy");
    assert!(tn.knows(LATE));
    let ledger = tn.ledger(LATE).expect("late tenant ledger");
    assert_eq!(ledger.submitted(), late_injected);

    // Fleet books close across crash, recovery, and the mutation.
    let c = fabric.conservation();
    assert!(c.holds(), "fleet conservation violated:\n{c}");
}
