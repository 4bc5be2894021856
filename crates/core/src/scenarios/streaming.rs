//! Guards that the mesh's shortcuts stay engaged on the benchmark's
//! configurations: a change that silently sends every worm back to the
//! per-run path, or stops the mesh from gliding through clear transit,
//! fails here, not in a benchmark run. `MeshNetwork::streamed_flit_hops`,
//! `glided_flit_hops` and `glided_cycles` measure the simulator's own
//! work, not the simulated mesh's, so no metric exports them.

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use noc::network::MeshNetwork;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::{Priority, TenantId};
use packet::store::MsgRef;
use rmt::pipeline::PipelineConfig;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use tenancy::{TenancyConfig, VNicSpec};
use trace::Tracer;
use workloads::arrivals::ArrivalProcess;
use workloads::frames::FrameFactory;
use workloads::kvs::TenantSpec;

use super::chain::{ChainScenario, ChainScenarioConfig};
use super::kvs::{KvsScenario, KvsScenarioConfig};
use crate::nic::{NicConfig, PanicNic};
use crate::programs::chain_program;

/// What the mesh did over a window: flit-hops in all, streamed and
/// glided, and mesh-active cycles in all and glided.
struct Window {
    hops: u64,
    streamed: u64,
    glided_hops: u64,
    active: u64,
    glided: u64,
}

impl Window {
    fn counters(net: &MeshNetwork<MsgRef>) -> [u64; 5] {
        [
            net.total_flit_hops(),
            net.streamed_flit_hops(),
            net.glided_flit_hops(),
            net.active_cycles(),
            net.glided_cycles(),
        ]
    }

    /// The window `run` moves `window` cycles past a `warmup`.
    fn of<S>(
        s: &mut S,
        nic: fn(&S) -> &PanicNic,
        run: fn(&mut S, u64),
        warmup: u64,
        window: u64,
    ) -> Window {
        run(s, warmup);
        let before = Window::counters(nic(s).network());
        run(s, window);
        let after = Window::counters(nic(s).network());
        let [hops, streamed, glided_hops, active, glided] =
            std::array::from_fn(|k| after[k] - before[k]);
        assert!(hops > 0, "the window moved no flit");
        Window {
            hops,
            streamed,
            glided_hops,
            active,
            glided,
        }
    }

    /// The streamed share of the hops the mesh ticked through (a glided
    /// hop is neither streamed nor planned).
    fn streamed_share(&self) -> f64 {
        self.streamed as f64 / (self.hops - self.glided_hops) as f64
    }

    /// The glided share of the mesh-active cycles.
    fn glided_share(&self) -> f64 {
        self.glided as f64 / self.active as f64
    }
}

/// The benchmark's `chain_saturated`: two-hop chains at the knee.
fn chain_saturated() -> ChainScenario {
    ChainScenario::new(ChainScenarioConfig {
        chain_len: 2,
        offered_fraction: 0.32,
        seed: 1,
        ..ChainScenarioConfig::default()
    })
}

/// The benchmark's `chain_gap`: the same NIC at 0.2 % load.
fn chain_gap() -> ChainScenario {
    ChainScenario::new(ChainScenarioConfig {
        chain_len: 2,
        offered_fraction: 0.002,
        seed: 1,
        ..ChainScenarioConfig::default()
    })
}

/// The benchmark's `kvs_mixed`: the two-tenant default plus a third
/// tenant of 512 B writes.
fn kvs_mixed() -> KvsScenario {
    let mut config = KvsScenarioConfig::two_tenant_default();
    config.seed = 1;
    config.tenants.push(TenantSpec {
        tenant: TenantId(3),
        arrivals: ArrivalProcess::periodic(1, 250),
        priority: Priority::Normal,
        get_ratio: 0.1,
        wan: false,
        value_size: 512,
        zipf_theta: Some(0.0),
    });
    KvsScenario::new(config)
}

/// A member of the benchmark's `rack_ring4`, alone: a 4×4 mesh of
/// 128-bit channels with a MAC, an 8-cycle crc offload, two portals and
/// 32 vNICs, its chain run through the crc twice here rather than on a
/// neighbour; one min-size frame every 120 cycles, over the vNICs in
/// turn.
struct RingMember {
    nic: PanicNic,
    eth: packet::EngineId,
    factory: FrameFactory,
    now: Cycle,
    sent: u64,
}

impl RingMember {
    const PERIOD: u64 = 120;
    const VNICS: u16 = 32;

    fn new() -> RingMember {
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
        b.program(chain_program(&[crc, crc], eth, Some(5_000)));
        let vnics = (1..=Self::VNICS)
            .map(|t| VNicSpec::new(TenantId(t), format!("vnic{t}"), 1).credit_quota(16))
            .collect();
        b.tenancy(TenancyConfig::new(vnics).shared_credits(256));
        RingMember {
            nic: b.build(),
            eth,
            factory: FrameFactory::for_nic_port(0),
            now: Cycle(0),
            sent: 0,
        }
    }

    fn nic(&self) -> &PanicNic {
        &self.nic
    }

    /// Fast-forwards `cycles` cycles, a frame at each period's start.
    fn run(&mut self, cycles: u64) {
        let end = self.now.0 + cycles;
        while self.now.0 < end {
            let frame = self.factory.min_frame((self.sent % 50) as u16, 80);
            let tenant = TenantId(1 + (self.sent % u64::from(Self::VNICS)) as u16);
            self.nic
                .rx_frame(self.eth, frame, tenant, Priority::Normal, self.now);
            self.sent += 1;
            (self.now, _) = self.nic.run_ff(self.now, Self::PERIOD);
        }
    }
}

#[test]
fn most_flit_hops_stream_at_the_chain_knee() {
    let got = Window::of(
        &mut chain_saturated(),
        ChainScenario::nic,
        ChainScenario::run,
        20_000,
        20_000,
    )
    .streamed_share();
    assert!(got >= 0.75, "streamed share {got:.3} < 0.75");
}

#[test]
fn nearly_all_flit_hops_stream_under_kvs_mixed() {
    let got = Window::of(
        &mut kvs_mixed(),
        KvsScenario::nic,
        KvsScenario::run,
        60_000,
        80_000,
    )
    .streamed_share();
    assert!(got >= 0.90, "streamed share {got:.3} < 0.90");
}

#[test]
fn most_mesh_active_cycles_glide_in_the_gap_regime() {
    let got = Window::of(
        &mut chain_gap(),
        ChainScenario::nic,
        ChainScenario::run,
        20_000,
        200_000,
    )
    .glided_share();
    assert!(got >= 0.70, "glided share {got:.3} < 0.70");
}

/// `chain_gap`'s two ports arrive in phase, so each frame pair's two
/// messages from (1,2) and (5,2) meet at (1,2)'s West output, and two
/// frames meet at an egress port's ejection buffer: the later one
/// follows the earlier one there and glides. Over the same window as
/// above, the glided share of mesh-active cycles and the executed ticks
/// per frame: 0.819 and 6.880 when meeting routes and shared
/// destinations were ticked through, 0.871 and 5.380 with followers.
#[test]
fn joined_routes_glide_on_chain_gap() {
    let mut s = chain_gap();
    s.run(20_000);
    let (skipped, frames) = (s.cycles_skipped(), s.nic().stats().rx_frames);
    let glided = Window::of(&mut s, ChainScenario::nic, ChainScenario::run, 0, 200_000);
    let frames = s.nic().stats().rx_frames - frames;
    let executed = 200_000 - (s.cycles_skipped() - skipped);
    let (share, per_frame) = (glided.glided_share(), executed as f64 / frames as f64);
    assert!(share >= 0.85, "glided share {share:.3} < 0.85");
    assert!(
        per_frame <= 6.0,
        "executed ticks a frame {per_frame:.3} > 6.0"
    );
}

#[test]
fn most_mesh_active_cycles_glide_on_a_ring_member() {
    let got = Window::of(
        &mut RingMember::new(),
        RingMember::nic,
        RingMember::run,
        12_000,
        120_000,
    )
    .glided_share();
    assert!(got >= 0.70, "glided share {got:.3} < 0.70");
}

/// A fast-forwarded `kvs_mixed` skips a tile's queue waiting on its
/// server and a mesh whose source queues hold followers: the share of
/// cycles it skips past a warm-up.
#[test]
fn most_kvs_mixed_cycles_are_skipped() {
    let mut s = kvs_mixed();
    s.run(60_000);
    let before = s.cycles_skipped();
    s.run(80_000);
    let got = (s.cycles_skipped() - before) as f64 / 80_000.0;
    assert!(got >= 0.50, "skipped share {got:.3} < 0.50");
}

#[test]
fn a_traced_mesh_streams_nothing() {
    let mut s = chain_saturated();
    s.attach_tracer(&Tracer::ring(1024));
    s.run(5_000);
    let mut gap = chain_gap();
    gap.attach_tracer(&Tracer::ring(1024));
    gap.run(50_000);
    for net in [s.nic().network(), gap.nic().network()] {
        assert!(net.total_flit_hops() > 0);
        assert_eq!(net.streamed_flit_hops(), 0);
        assert_eq!((net.glided_flit_hops(), net.glided_cycles()), (0, 0));
    }
}
