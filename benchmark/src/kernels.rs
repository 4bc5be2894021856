//! Layer kernels: short standalone drives of one layer's public API.
//!
//! Each kernel answers "what does one operation of this layer cost on
//! the host?" at a fixed operating point, independent of the workload
//! being traced, so a layer's number can be set beside the end-to-end
//! metric it should move (README.md, "How the metrics interact").
//! Times are reference nanoseconds ([`crate::calib`]): the median of
//! [`BATCHES`] calibrated batches.

use std::collections::HashMap;

use bytes::Bytes;
use engines::engine::NullOffload;
use engines::ipsec::{decrypt_frame, encrypt_frame, SecurityAssoc, TunnelConfig};
use engines::mac::MacEngine;
use engines::tile::{Emit, EngineTile, TileConfig};
use faults::watchdog::{Watchdog, WatchdogConfig};
use noc::network::{MeshNetwork, NetworkConfig};
use noc::topology::Placement;
use packet::chain::{ChainHeader, EngineClass, EngineId, Slack};
use packet::flit::{Flit, MessagePool};
use packet::headers::{EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr, UdpHeader};
use packet::message::{Message, MessageId, MessageKind, Priority, TenantId};
use panic_core::nic::{NicBuilder, NicConfig, PanicNic};
use panic_core::programs::chain_program;
use panic_core::scenarios::{ChainScenario, ChainScenarioConfig, KvsScenario, KvsScenarioConfig};
use panic_ctrl::{CtrlEndpoint, CtrlFrame, CtrlRequest};
use rmt::compile::CompiledProgram;
use rmt::parse::ParseOutcome;
use rmt::pipeline::{PipelineConfig, RmtPipeline};
use rmt::program::{ProgramScratch, RmtProgram};
use sched::admission::AdmissionPolicy;
use sched::queue::SchedQueue;
use sim_core::events::EventQueue;
use sim_core::rng::SimRng;
use sim_core::stats::Histogram;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use sim_core::wheel::TimerWheel;
use tenancy::{ExitKind, SubmitSource, TenancyConfig, TenancyRuntime, VNicSpec};
use trace::MetricsRegistry;
use workloads::arrivals::ArrivalProcess;
use workloads::frames::FrameFactory;
use workloads::kvs::{KvsWorkload, KvsWorkloadConfig, TenantSpec};
use workloads::zipf::Zipf;

use crate::calib::{Calibrator, SliceTimer};
use crate::rigs::ctl::{CtlRig, SCRIPT_PERIOD, SCRIPT_STEPS};
use crate::rigs::rack;
use crate::rigs::Rig;
use crate::spans::Recorder;
use crate::stats::median;

/// Calibrated batches per kernel.
const BATCHES: usize = 5;

/// Uniform-random messages per cycle, over all 36 nodes, at which the
/// standalone mesh moves about as many flit-hops per cycle as
/// `chain_saturated` does (~30; a test below holds it within 10 %).
const LOADED_MESH_MSGS_PER_CYCLE: f64 = 0.68;

/// Results of every kernel, `(metric name, value)`.
pub type KernelResults = Vec<(&'static str, f64)>;

/// The calibrator plus how many batches each kernel gets.
struct Bench<'a> {
    cal: &'a mut Calibrator,
    batches: usize,
}

impl Bench<'_> {
    /// Median over the batches of reference nanoseconds per operation.
    /// `batch` runs one batch and returns how many operations it did.
    fn ns_per_op(&mut self, mut batch: impl FnMut() -> u64) -> f64 {
        let mut timer = SliceTimer::start(self.cal);
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let (ops, t) = timer.slice(&mut batch);
                t.norm_s * 1e9 / ops.max(1) as f64
            })
            .collect();
        median(&samples)
    }
}

fn frame_message(id: u64, frame: Bytes, source: EngineId) -> Message {
    Message::builder(MessageId(id), MessageKind::EthernetFrame)
        .payload(frame)
        .source(source)
        .build()
}

// ---------------------------------------------------------------- sim-core

/// The same schedule/pop script on both event queues: `n` events at
/// pseudo-random offsets up to 5000 cycles out, then jump from wake to
/// wake popping everything due.
fn event_script(n: u64) -> Vec<u64> {
    let mut rng = SimRng::new(0xE7E7);
    (0..n).map(|_| 1 + rng.gen_range(5_000)).collect()
}

fn sim_core(b: &mut Bench<'_>, out: &mut KernelResults) {
    let script = event_script(8_192);
    out.push((
        "sim-core.wheel_ns_per_event",
        b.ns_per_op(|| {
            let mut wheel: TimerWheel<u32> = TimerWheel::new();
            for (i, at) in script.iter().enumerate() {
                wheel.schedule(Cycle(*at), i as u32);
            }
            let mut popped = 0u64;
            while let Some(t) = wheel.next_event_time(Cycle(10_000)) {
                while wheel.pop_due(t).is_some() {
                    popped += 1;
                }
            }
            assert_eq!(popped, script.len() as u64);
            popped
        }),
    ));
    out.push((
        "sim-core.eventqueue_ns_per_event",
        b.ns_per_op(|| {
            let mut queue: EventQueue<u32> = EventQueue::new();
            for (i, at) in script.iter().enumerate() {
                queue.schedule(Cycle(*at), i as u32);
            }
            let mut popped = 0u64;
            while let Some(t) = queue.next_due() {
                while queue.pop_due(t).is_some() {
                    popped += 1;
                }
            }
            assert_eq!(popped, script.len() as u64);
            popped
        }),
    ));
    let mut h = Histogram::new();
    let mut rng = SimRng::new(7);
    let values: Vec<u64> = (0..65_536).map(|_| rng.gen_range(1 << 20)).collect();
    out.push((
        "sim-core.histogram_record_ns",
        b.ns_per_op(|| {
            for v in &values {
                h.record(*v);
            }
            values.len() as u64
        }),
    ));
    std::hint::black_box(h.count());
}

// ------------------------------------------------------------------ packet

fn packet(b: &mut Bench<'_>, out: &mut KernelResults) {
    let mut factory = FrameFactory::for_nic_port(0);
    let frame = factory.min_frame(3, 80);
    let mut pool = MessagePool::new();
    let mut flits: Vec<Flit> = Vec::with_capacity(16);
    out.push((
        "packet.segment_ns_per_msg",
        b.ns_per_op(|| {
            let n = 50_000;
            for i in 0..n {
                let msg = frame_message(i, frame.clone(), EngineId(0));
                Flit::segment_with(msg, EngineId(5), 64, &mut pool, |f| flits.push(f));
                let tail = flits.pop().expect("at least one flit");
                std::hint::black_box(tail.take_message(&mut pool).id);
                flits.clear();
            }
            n
        }),
    ));
    out.push((
        "packet.header_parse_ns",
        b.ns_per_op(|| {
            let n = 200_000;
            let mut acc = 0usize;
            for _ in 0..n {
                let data = std::hint::black_box(&frame[..]);
                let (_, n1) = EthernetHeader::parse(data).expect("ethernet");
                let (_, n2) = Ipv4Header::parse(&data[n1..]).expect("ipv4");
                let (udp, n3) = UdpHeader::parse(&data[n1 + n2..]).expect("udp");
                acc += n1 + n2 + n3 + usize::from(udp.dst_port);
            }
            std::hint::black_box(acc);
            n
        }),
    ));
    let hops = [EngineId(3), EngineId(7), EngineId(1)];
    out.push((
        "packet.chain_hdr_ns",
        b.ns_per_op(|| {
            let n = 200_000;
            let mut acc = 0u64;
            for i in 0..n {
                let mut chain =
                    ChainHeader::uniform(std::hint::black_box(&hops), Slack(500 + i as u32 % 7))
                        .expect("three hops fit");
                while let Some(hop) = chain.advance() {
                    acc += u64::from(hop.engine.0);
                }
            }
            std::hint::black_box(acc);
            n
        }),
    ));
}

// --------------------------------------------------------------------- noc

fn mesh() -> MeshNetwork {
    let config = NetworkConfig::panic_6x6_64b();
    let placement = Placement::row_major(config.topology);
    MeshNetwork::new(config, placement)
}

/// Drives the standalone 6×6 / 64-bit mesh with uniform-random 64 B
/// messages at `msgs_per_cycle` for `cycles` cycles; returns the
/// flit-hops moved.
fn drive_mesh(net: &mut MeshNetwork, now: &mut Cycle, cycles: u64, msgs_per_cycle: f64) -> u64 {
    let nodes = net.config().topology.nodes() as u64;
    let payload = Bytes::from(vec![0u8; 64]);
    let mut rng = SimRng::new(now.0 ^ 0x0C0C);
    let mut acc = 0.0;
    let before = net.total_flit_hops();
    for _ in 0..cycles {
        acc += msgs_per_cycle;
        while acc >= 1.0 {
            acc -= 1.0;
            let src = rng.gen_range(nodes);
            let dst = (src + 1 + rng.gen_range(nodes - 1)) % nodes;
            let msg = Message::builder(MessageId(now.0 << 8 | src), MessageKind::Internal)
                .payload(payload.clone())
                .build();
            net.send(EngineId(src as u16), EngineId(dst as u16), msg, *now);
        }
        net.tick(*now);
        *now = now.next();
        for node in 0..nodes {
            while net.poll_ejected(EngineId(node as u16), *now).is_some() {}
        }
    }
    net.total_flit_hops() - before
}

fn noc(b: &mut Bench<'_>, out: &mut KernelResults) {
    let mut net = mesh();
    let mut now = Cycle(0);
    drive_mesh(&mut net, &mut now, 2_000, LOADED_MESH_MSGS_PER_CYCLE);
    out.push((
        "noc.ns_per_flit_hop",
        b.ns_per_op(|| drive_mesh(&mut net, &mut now, 4_000, LOADED_MESH_MSGS_PER_CYCLE)),
    ));
    let mut idle = mesh();
    let mut t = Cycle(0);
    out.push((
        "noc.tick_ns_idle",
        b.ns_per_op(|| {
            let n = 200_000;
            for _ in 0..n {
                idle.tick(t);
                t = t.next();
            }
            n
        }),
    ));
    // One message in flight at a time, corner to corner.
    let mut light = mesh();
    let mut t = Cycle(0);
    let payload = Bytes::from(vec![0u8; 64]);
    out.push((
        "noc.tick_ns_light",
        b.ns_per_op(|| {
            let mut ticks = 0u64;
            for i in 0..1_500u64 {
                let msg = Message::builder(MessageId(t.0 << 8 | i & 0xff), MessageKind::Internal)
                    .payload(payload.clone())
                    .build();
                light.send(EngineId(0), EngineId(35), msg, t);
                loop {
                    light.tick(t);
                    t = t.next();
                    ticks += 1;
                    if light.poll_ejected(EngineId(35), t).is_some() {
                        break;
                    }
                }
            }
            ticks
        }),
    ));
}

// --------------------------------------------------------------------- rmt

/// The chain scenario's one-table ternary program and the KVS
/// scenario's multi-table program, as their lint specs carry them.
fn programs() -> (RmtProgram, RmtProgram) {
    let chain = ChainScenario::lint_spec(&ChainScenarioConfig::default())
        .program
        .expect("chain scenario has a program");
    let kvs = KvsScenario::lint_spec(&KvsScenarioConfig::two_tenant_default())
        .program
        .expect("kvs scenario has a program");
    (chain, kvs)
}

fn chain_frames() -> Vec<Bytes> {
    let mut factory = FrameFactory::for_nic_port(0);
    (0..64u16).map(|i| factory.min_frame(i, 80)).collect()
}

/// One LAN tenant issuing a request every cycle, half of them GETs.
fn busy_kvs_workload(seed: u64, value_size: usize) -> KvsWorkload {
    KvsWorkload::new(KvsWorkloadConfig {
        tenants: vec![TenantSpec {
            tenant: TenantId(1),
            arrivals: ArrivalProcess::periodic(1, 1),
            priority: Priority::Normal,
            get_ratio: 0.5,
            wan: false,
            value_size,
            zipf_theta: None,
        }],
        keys_per_tenant: 1000,
        zipf_theta: 0.99,
        seed,
        partitioned_keys: false,
    })
}

fn kvs_frames() -> Vec<Bytes> {
    let mut workload = busy_kvs_workload(11, 64);
    let mut frames = Vec::new();
    while frames.len() < 64 {
        frames.extend(workload.tick().into_iter().map(|e| e.frame));
    }
    frames
}

/// Submits two frames a cycle into a two-wide pipeline and drains it;
/// one operation = one frame through `submit` + `tick_into`.
fn pipeline_ns(b: &mut Bench<'_>, program: &RmtProgram, frames: &[Bytes]) -> f64 {
    let mut pipe = RmtPipeline::new(PipelineConfig::panic_default(), program.clone());
    let mut outputs = Vec::new();
    let mut now = Cycle(0);
    let mut id = 0u64;
    b.ns_per_op(|| {
        let cycles = 10_000u64;
        let mut emerged = 0u64;
        for _ in 0..cycles {
            for _ in 0..2 {
                let frame = frames[(id % frames.len() as u64) as usize].clone();
                pipe.submit(frame_message(id, frame, EngineId((id % 2) as u16)));
                id += 1;
            }
            pipe.tick_into(now, &mut outputs);
            emerged += outputs.len() as u64;
            now = now.next();
        }
        std::hint::black_box(emerged);
        cycles * 2
    })
}

/// One program execution per frame over a warm scratch — the
/// compiled dispatch and the reference interpreter run through the
/// same entry point, so their costs compare directly.
fn program_ns(
    b: &mut Bench<'_>,
    frames: &[Bytes],
    mut run: impl FnMut(&mut Message, &mut ProgramScratch),
) -> f64 {
    let mut scratch = ProgramScratch::default();
    b.ns_per_op(|| {
        let n = 20_000u64;
        for i in 0..n {
            let frame = frames[(i % frames.len() as u64) as usize].clone();
            let mut msg = frame_message(i, frame, EngineId((i % 2) as u16));
            run(&mut msg, &mut scratch);
            std::hint::black_box(msg.chain.len());
        }
        n
    })
}

fn rmt(b: &mut Bench<'_>, out: &mut KernelResults) {
    let (chain, kvs) = programs();
    let (chain_in, kvs_in) = (chain_frames(), kvs_frames());
    out.push((
        "rmt.pipeline_ns_per_pkt.chain",
        pipeline_ns(b, &chain, &chain_in),
    ));
    out.push(("rmt.pipeline_ns_per_pkt.kvs", pipeline_ns(b, &kvs, &kvs_in)));
    let compiled_chain = CompiledProgram::compile(&chain);
    let compiled_kvs = CompiledProgram::compile(&kvs);
    out.push((
        "rmt.compiled_ns_per_pkt.chain",
        program_ns(b, &chain_in, |msg, scratch| {
            compiled_chain.process_scratch(msg, scratch, &mut |_, _, _| {});
        }),
    ));
    out.push((
        "rmt.compiled_ns_per_pkt.kvs",
        program_ns(b, &kvs_in, |msg, scratch| {
            compiled_kvs.process_scratch(msg, scratch, &mut |_, _, _| {});
        }),
    ));
    out.push((
        "rmt.interp_ns_per_pkt.chain",
        program_ns(b, &chain_in, |msg, scratch| {
            chain.process_scratch(msg, scratch, &mut |_, _, _| {});
        }),
    ));
    let mut outcome = ParseOutcome::default();
    out.push((
        "rmt.parse_ns_per_pkt",
        b.ns_per_op(|| {
            let n = 100_000u64;
            for i in 0..n {
                let frame = &kvs_in[(i % kvs_in.len() as u64) as usize];
                kvs.parser()
                    .parse_into(std::hint::black_box(frame), &mut outcome);
            }
            std::hint::black_box(outcome.payload_offset);
            n
        }),
    ));
    out.push((
        "rmt.compile_ns",
        b.ns_per_op(|| {
            let n = 200u64;
            for _ in 0..n {
                std::hint::black_box(CompiledProgram::compile(std::hint::black_box(&kvs)).stages());
            }
            n
        }),
    ));
}

// ------------------------------------------------------------------- sched

fn sched_ns(b: &mut Bench<'_>, depth: usize) -> f64 {
    let mut queue = SchedQueue::new(depth, AdmissionPolicy::TailDrop);
    let mut held: Vec<Message> = (0..depth as u64)
        .map(|i| {
            Message::builder(MessageId(i), MessageKind::Internal)
                .chain(
                    ChainHeader::uniform(&[EngineId(1)], Slack((i * 37 % 101) as u32 * 10))
                        .expect("one hop fits"),
                )
                .build()
        })
        .collect();
    let mut now = Cycle(0);
    b.ns_per_op(|| {
        let rounds = (16_384 / depth) as u64;
        for _ in 0..rounds {
            for msg in held.drain(..) {
                assert!(queue.offer(msg, now).is_accepted());
            }
            now = now.next();
            while let Some(msg) = queue.pop(now) {
                held.push(msg);
            }
        }
        rounds * depth as u64
    })
}

// ----------------------------------------------------------------- engines

fn engines(b: &mut Bench<'_>, out: &mut KernelResults) {
    let id = EngineId(5);
    let mut tile = EngineTile::new(
        id,
        Box::new(NullOffload::new("null", EngineClass::Asic, Cycles::ZERO)),
        TileConfig::default(),
    );
    let chain = ChainHeader::uniform(&[id, EngineId(6)], Slack(500)).expect("two hops fit");
    let payload = Bytes::from(vec![0u8; 64]);
    let mut spare: Vec<Message> = (0..4u64)
        .map(|i| {
            Message::builder(MessageId(i), MessageKind::EthernetFrame)
                .payload(payload.clone())
                .build()
        })
        .collect();
    let mut emitted = Vec::new();
    let mut now = Cycle(0);
    out.push((
        "engines.tile_ns_per_msg",
        b.ns_per_op(|| {
            let n = 100_000u64;
            for _ in 0..n {
                let mut msg = spare.pop().expect("messages come back every cycle");
                msg.chain = chain.clone();
                tile.accept(msg, now);
                tile.tick_into(now, &mut emitted);
                now = now.next();
                for e in emitted.drain(..) {
                    if let Emit::To(_, msg) = e {
                        spare.push(msg);
                    }
                }
            }
            n
        }),
    ));
    let tunnel = TunnelConfig {
        sa: SecurityAssoc { spi: 1, key: 42 },
        outer_src_mac: MacAddr::for_port(0),
        outer_dst_mac: MacAddr::for_port(1),
        outer_src_ip: Ipv4Addr::new(1, 1, 1, 1),
        outer_dst_ip: Ipv4Addr::new(2, 2, 2, 2),
    };
    let sas: HashMap<u32, SecurityAssoc> = HashMap::from([(tunnel.sa.spi, tunnel.sa)]);
    let mut factory = FrameFactory::for_nic_port(0);
    let inner = factory.inbound_udp(
        FrameFactory::lan_client_ip(1),
        99,
        80,
        &vec![0xA5u8; 256 - 42],
        64,
    );
    out.push((
        "engines.ipsec_ns_per_frame",
        b.ns_per_op(|| {
            let n = 5_000u64;
            for seq in 0..n {
                let outer = encrypt_frame(std::hint::black_box(&inner), &tunnel, seq as u32);
                let plain = decrypt_frame(&outer, &sas).expect("round trip");
                std::hint::black_box(plain.len());
            }
            n
        }),
    ));
}

// ----------------------------------------------------------------- tenancy

fn tenancy(b: &mut Bench<'_>, out: &mut KernelResults) {
    let vnics = (0..rack::VNICS)
        .map(|rank| {
            VNicSpec::new(
                TenantId(rank as u16 + 1),
                format!("t{rank}"),
                if rank == 0 { 4 } else { 1 },
            )
            .credit_quota(16)
        })
        .collect();
    let mut runtime = TenancyRuntime::new(TenancyConfig::new(vnics).shared_credits(256));
    let payload = Bytes::from(vec![0u8; 64]);
    let mut now = Cycle(0);
    let mut id = 0u64;
    let mut released: Vec<TenantId> = Vec::new();
    out.push((
        "tenancy.submit_release_ns_per_msg.v32",
        b.ns_per_op(|| {
            let cycles = 10_000u64;
            for _ in 0..cycles {
                for _ in 0..4 {
                    let tenant = TenantId((id % rack::VNICS as u64) as u16 + 1);
                    let msg = Message::builder(MessageId(id), MessageKind::EthernetFrame)
                        .payload(payload.clone())
                        .tenant(tenant)
                        .injected_at(now)
                        .build();
                    runtime.submit(SubmitSource::Rx, msg, now);
                    id += 1;
                }
                runtime.release(now, |tenant, _msg| released.push(tenant));
                for tenant in released.drain(..) {
                    runtime.note_exit(tenant, ExitKind::Wire, Some(Cycles(100)));
                }
                now = now.next();
            }
            cycles * 4
        }),
    ));
    assert_eq!(runtime.pending_total(), 0, "tenancy kernel must keep up");
}

// ------------------------------------------------------------------ faults

fn faults(b: &mut Bench<'_>, out: &mut KernelResults) {
    let msg = frame_message(0, Bytes::from(vec![0u8; 64]), EngineId(0));
    let mut id = 0u64;
    out.push((
        "faults.watchdog_ns_per_msg",
        b.ns_per_op(|| {
            let n = 20_000u64;
            let mut watchdog = Watchdog::new(WatchdogConfig::default());
            let mut m = msg.clone();
            for i in 0..n {
                m.id = MessageId(id);
                id += 1;
                watchdog.track(&m, EngineId(0), Cycle(i));
                std::hint::black_box(watchdog.on_complete(m.id, Cycle(i + 50)));
            }
            n
        }),
    ));
}

// -------------------------------------------------------------------- core

/// The chain scenario's NIC shape without the scenario: 6×6 mesh,
/// 64-bit channels, two MACs, eight line-rate offloads, four portals.
fn idle_nic_builder() -> NicBuilder {
    let freq = Freq::PANIC_DEFAULT;
    let mut b = PanicNic::builder(NicConfig {
        pcie_flush_interval: 0,
        ..NicConfig::small()
    });
    let ports: Vec<EngineId> = (0..2)
        .map(|i| {
            b.engine(
                Box::new(MacEngine::new(
                    format!("eth{i}"),
                    Bandwidth::gbps(100),
                    freq,
                )),
                TileConfig::default(),
            )
        })
        .collect();
    let offloads: Vec<EngineId> = (0..8)
        .map(|i| {
            b.engine(
                Box::new(NullOffload::new(
                    format!("off{i}"),
                    EngineClass::Asic,
                    Cycles::ZERO,
                )),
                TileConfig::default(),
            )
        })
        .collect();
    for _ in 0..4 {
        let _ = b.rmt_portal();
    }
    b.program(chain_program(&offloads[..2], ports[1], Some(500)));
    b
}

fn core(b: &mut Bench<'_>, out: &mut KernelResults) {
    let mut nic = idle_nic_builder().build();
    let mut now = Cycle(0);
    out.push((
        "core.tick_ns_empty",
        b.ns_per_op(|| {
            let n = 100_000u64;
            for _ in 0..n {
                nic.tick(now);
                now = now.next();
            }
            n
        }),
    ));
    out.push((
        "core.next_activity_ns",
        b.ns_per_op(|| {
            let n = 200_000u64;
            let mut some = 0u64;
            for i in 0..n {
                some += u64::from(nic.next_activity(Cycle(now.0 + i)).is_some());
            }
            std::hint::black_box(some);
            n
        }),
    ));
    out.push((
        "core.skip_idle_ns_per_jump",
        b.ns_per_op(|| {
            let n = 100_000u64;
            for _ in 0..n {
                let to = Cycle(now.0 + 1_000);
                nic.skip_idle(now, to);
                now = to;
            }
            n
        }),
    ));
    out.push((
        "core.build_ns",
        b.ns_per_op(|| {
            let n = 10u64;
            for _ in 0..n {
                std::hint::black_box(idle_nic_builder().build().is_quiescent());
            }
            n
        }),
    ));
    let mut registry = MetricsRegistry::new();
    out.push((
        "core.export_metrics_ns",
        b.ns_per_op(|| {
            let n = 200u64;
            for _ in 0..n {
                nic.export_metrics(&mut registry);
            }
            n
        }),
    ));
    out.push((
        "trace.metrics_json_ns",
        b.ns_per_op(|| {
            let n = 200u64;
            for _ in 0..n {
                std::hint::black_box(registry.to_json().len());
            }
            n
        }),
    ));
}

// -------------------------------------------------------------------- ctrl

fn ctrl(b: &mut Bench<'_>, out: &mut KernelResults) {
    let request =
        CtrlRequest::AddVnic(VNicSpec::new(TenantId(9), "kernel-tenant", 4).credit_quota(16));
    out.push((
        "ctrl.codec_ns_per_frame",
        b.ns_per_op(|| {
            let n = 20_000u64;
            for seq in 0..n {
                let raw = CtrlFrame::request(0, seq as u32, request.clone()).encode();
                let frame = CtrlFrame::decode(std::hint::black_box(&raw)).expect("round trip");
                std::hint::black_box(frame.seq);
            }
            n
        }),
    ));
    let builder = idle_nic_builder();
    let spec = builder.to_spec();
    let mut nic = builder.build();
    let mut endpoint = CtrlEndpoint::new(spec);
    out.push((
        "ctrl.service_ns_idle",
        b.ns_per_op(|| {
            let n = 200_000u64;
            for i in 0..n {
                endpoint.service(&mut nic, Cycle(i));
            }
            n
        }),
    ));
    // One pass of the churn script under a private recorder; the
    // service spans are named by what was queued (rigs::ctl).
    let horizon = SCRIPT_PERIOD * (SCRIPT_STEPS + 1);
    let rec = Recorder::enabled();
    let mut rig = CtlRig::build(1, horizon);
    let ((), wall) = SliceTimer::start(b.cal).slice(|| rig.advance(horizon, &rec));
    let speed = wall.norm_s / wall.raw_s;
    let mean_ns = |name: &str| {
        let t = rec.totals(name);
        assert!(t.count > 0, "churn script never produced a `{name}` span");
        t.total_ns as f64 / t.count as f64 * speed
    };
    out.push(("ctrl.service_ns_subscribed", mean_ns("service.telemetry")));
    out.push(("ctrl.mutation_ns.param", mean_ns("service.param")));
    out.push(("ctrl.mutation_ns.add_vnic", mean_ns("service.add_vnic")));
    out.push(("ctrl.mutation_ns.swap", mean_ns("service.swap")));
}

// ------------------------------------------------------------------ verify

fn verify(b: &mut Bench<'_>, out: &mut KernelResults) {
    let chain = ChainScenario::lint_spec(&ChainScenarioConfig::default());
    let member = rack::member_spec(1);
    for (name, spec) in [
        ("verify.ns_per_spec.chain", &chain),
        ("verify.ns_per_spec.rack_member", &member),
    ] {
        out.push((
            name,
            b.ns_per_op(|| {
                let n = 20u64;
                for _ in 0..n {
                    std::hint::black_box(
                        panic_verify::verify(std::hint::black_box(spec)).is_clean(),
                    );
                }
                n
            }),
        ));
    }
}

// --------------------------------------------------------------- workloads

fn workload_generators(b: &mut Bench<'_>, out: &mut KernelResults) {
    let mut factory = FrameFactory::for_nic_port(0);
    out.push((
        "workloads.frame_gen_ns",
        b.ns_per_op(|| {
            let n = 50_000u64;
            for i in 0..n {
                std::hint::black_box(factory.min_frame((i % 50) as u16, 80).len());
            }
            n
        }),
    ));
    let zipf = Zipf::new(1000, 0.99);
    let mut rng = SimRng::new(5);
    out.push((
        "workloads.zipf_sample_ns",
        b.ns_per_op(|| {
            let n = 200_000u64;
            let mut acc = 0usize;
            for _ in 0..n {
                acc += zipf.sample(&mut rng);
            }
            std::hint::black_box(acc);
            n
        }),
    ));
    let mut workload = busy_kvs_workload(3, 256);
    out.push((
        "workloads.kvs_request_gen_ns",
        b.ns_per_op(|| {
            let mut generated = 0u64;
            for _ in 0..10_000 {
                generated += workload.tick().len() as u64;
            }
            generated
        }),
    ));
}

/// Runs every kernel, [`BATCHES`] batches each (one when `quick`).
pub fn run_all(cal: &mut Calibrator, quick: bool) -> KernelResults {
    let b = &mut Bench {
        cal,
        batches: if quick { 1 } else { BATCHES },
    };
    let mut out = KernelResults::new();
    sim_core(b, &mut out);
    packet(b, &mut out);
    noc(b, &mut out);
    rmt(b, &mut out);
    out.push(("sched.offer_pop_ns.d64", sched_ns(b, 64)));
    out.push(("sched.offer_pop_ns.d256", sched_ns(b, 256)));
    engines(b, &mut out);
    tenancy(b, &mut out);
    faults(b, &mut out);
    core(b, &mut out);
    ctrl(b, &mut out);
    verify(b, &mut out);
    workload_generators(b, &mut out);
    let samples: Vec<f64> = (0..b.batches).map(|_| b.cal.sample() * 1e9).collect();
    out.push(("harness.calib_ns", median(&samples)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `chain_saturated` moves 30.2 flit-hops per cycle; the loaded
    /// mesh kernel must sit at that operating point.
    #[test]
    fn loaded_mesh_kernel_runs_at_chain_saturated_operating_point() {
        let mut net = mesh();
        let mut now = Cycle(0);
        drive_mesh(&mut net, &mut now, 2_000, LOADED_MESH_MSGS_PER_CYCLE);
        let hops = drive_mesh(&mut net, &mut now, 10_000, LOADED_MESH_MSGS_PER_CYCLE);
        let (got, want) = (hops as f64 / 10_000.0, 30.2);
        assert!(
            (got - want).abs() / want < 0.10,
            "loaded mesh moves {got:.1} flit-hops/cycle, chain_saturated {want:.1}"
        );
    }
}
