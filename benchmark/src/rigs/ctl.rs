//! `ctl_churn`: a NIC reconfigured over the control wire while it
//! carries traffic.
//!
//! `repro ctl`'s rig (4×4 mesh, 128-bit channels, MAC + 40-cycle
//! ipsec-class + 12-cycle comp offloads, two portals, one build-time
//! tenant) rebuilt from the public API and stepped by the harness:
//! every cycle boundary offers the due frames, services the
//! [`CtrlEndpoint`], ticks the NIC and drains the wire. A `tenancy.`
//! telemetry subscription is live from cycle 0, and every
//! [`SCRIPT_PERIOD`] cycles the next request of a six-step script goes
//! out: SetRate → SetWeight → AddVnic → SwapProgram → an illegal
//! SetCreditQuota (rejected online with PV603) → RemoveVnic.
//!
//! This is the only workload whose stepping loop is harness code, so
//! it is also the only one with per-call spans (`rx_frame`,
//! `service.*`, `tick`, `take_wire_tx`); service calls are named by
//! what was queued when they ran.

use std::collections::VecDeque;

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::{Message, Priority, TenantId};
use packet::EngineId;
use panic_core::nic::{NicConfig, PanicNic};
use panic_core::programs::chain_program;
use panic_ctrl::{CtrlBody, CtrlEndpoint, CtrlFrame, CtrlRequest, CtrlResponse};
use rmt::pipeline::PipelineConfig;
use sim_core::rng::SimRng;
use sim_core::stats::Histogram;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use tenancy::{RateSpec, TenancyConfig, VNicSpec};
use trace::{MetricsRegistry, Tracer};
use workloads::frames::FrameFactory;

use super::{Counters, Mode, Outcome, Rig};
use crate::spans::Recorder;

/// The build-time tenant.
const BASE: TenantId = TenantId(1);
/// The tenant the script adds and removes.
const LATE: TenantId = TenantId(2);
/// Build-time tenant injection period, cycles.
const BASE_PERIOD: u64 = 40;
/// Script-added tenant injection period, cycles.
const LATE_PERIOD: u64 = 60;
/// One control request every this many cycles.
pub const SCRIPT_PERIOD: u64 = 2_000;
/// Steps in one pass through the script.
pub const SCRIPT_STEPS: u64 = 6;
/// Drain budget, cycles.
const DRAIN_CAP: u64 = 100_000;

/// What a service call found queued, for span names and accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Subscribe,
    Param,
    AddVnic,
    Swap,
    Reject,
    RemoveVnic,
}

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::Subscribe => "service.subscribe",
            Op::Param => "service.param",
            Op::AddVnic => "service.add_vnic",
            Op::Swap => "service.swap",
            Op::Reject => "service.reject",
            Op::RemoveVnic => "service.remove_vnic",
        }
    }
}

/// Control-plane results the registry does not carry.
#[derive(Debug, Default)]
struct CtlCounts {
    rejections: u64,
    errors: u64,
    telemetry_frames: u64,
    swap_drain: Histogram,
}

/// The NIC, its endpoint, and the scripted session's state.
pub struct CtlRig {
    nic: PanicNic,
    ep: CtrlEndpoint,
    eth: EngineId,
    crypto: EngineId,
    comp: EngineId,
    factory: FrameFactory,
    flows: SimRng,
    now: Cycle,
    /// Arrivals and the script stop here; the drain runs past it.
    horizon: u64,
    offered: u64,
    next_step: u64,
    next_seq: u32,
    /// Cycle the LATE vNIC went live (None while absent/draining).
    late_since: Option<u64>,
    in_flight: VecDeque<(Op, u64)>,
    counts: CtlCounts,
    wire: Vec<Message>,
}

impl std::fmt::Debug for CtlRig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtlRig")
            .field("now", &self.now)
            .field("offered", &self.offered)
            .field("epoch", &self.ep.epoch())
            .finish_non_exhaustive()
    }
}

impl CtlRig {
    /// Builds the NIC and endpoint; `seed` draws each frame's flow id.
    /// The script and the arrivals run for `horizon` cycles.
    #[must_use]
    pub fn build(seed: u64, horizon: u64) -> CtlRig {
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
        let offload = |name: &str, service: u64| {
            (
                Box::new(NullOffload::new(name, EngineClass::Asic, Cycles(service))),
                TileConfig {
                    queue_capacity: 256,
                    ..TileConfig::default()
                },
            )
        };
        let (ipsec, tile) = offload("ipsec", 40);
        let crypto = b.engine(ipsec, tile);
        let (compress, tile) = offload("comp", 12);
        let comp = b.engine(compress, tile);
        let _ = b.rmt_portal();
        let _ = b.rmt_portal();
        b.program(chain_program(&[crypto, comp], eth, Some(5_000)));
        b.tenancy(
            TenancyConfig::new(vec![VNicSpec::new(BASE, "base-kvs", 8).credit_quota(32)])
                .shared_credits(64),
        );
        let spec = b.to_spec();
        let mut rig = CtlRig {
            nic: b.build(),
            ep: CtrlEndpoint::new(spec),
            eth,
            crypto,
            comp,
            factory: FrameFactory::for_nic_port(0),
            flows: SimRng::new(seed).derive("ctl-flows"),
            now: Cycle(0),
            horizon,
            offered: 0,
            next_step: 0,
            next_seq: 1,
            late_since: None,
            in_flight: VecDeque::new(),
            counts: CtlCounts::default(),
            wire: Vec::new(),
        };
        rig.submit(
            Op::Subscribe,
            CtrlRequest::Subscribe {
                prefixes: vec!["tenancy.".into()],
            },
        );
        rig
    }

    fn submit(&mut self, op: Op, req: CtrlRequest) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ep.submit(&CtrlFrame::request(0, seq, req).encode());
        self.in_flight.push_back((op, self.now.0));
    }

    /// The script's `step`-th request. Passes alternate the parameter
    /// values and the two programs, so every request is a real change.
    fn script_request(&self, step: u64) -> (Op, CtrlRequest) {
        let odd_pass = (step / SCRIPT_STEPS) % 2 == 1;
        match step % SCRIPT_STEPS {
            0 => (
                Op::Param,
                CtrlRequest::SetRate {
                    tenant: BASE,
                    rate: (!odd_pass).then(|| RateSpec::per_cycles(1, 20, 4)),
                },
            ),
            1 => (
                Op::Param,
                CtrlRequest::SetWeight {
                    tenant: BASE,
                    weight: if odd_pass { 8 } else { 4 },
                },
            ),
            2 => (
                Op::AddVnic,
                CtrlRequest::AddVnic(VNicSpec::new(LATE, "late-tenant", 4).credit_quota(16)),
            ),
            3 => {
                let chain: &[EngineId] = if odd_pass {
                    &[self.crypto, self.comp]
                } else {
                    &[self.comp]
                };
                (
                    Op::Swap,
                    CtrlRequest::SwapProgram(chain_program(chain, self.eth, Some(5_000))),
                )
            }
            4 => (
                Op::Reject,
                CtrlRequest::SetCreditQuota {
                    tenant: BASE,
                    quota: 500,
                },
            ),
            _ => (Op::RemoveVnic, CtrlRequest::RemoveVnic { tenant: LATE }),
        }
    }

    fn offer(&mut self, tenant: TenantId, dst_port: u16) {
        let flow = self.flows.gen_range(64) as u16;
        let frame = self.factory.min_frame(flow, dst_port);
        self.nic
            .rx_frame(self.eth, frame, tenant, Priority::Normal, self.now);
        self.offered += 1;
    }

    fn collect_responses(&mut self) {
        while let Some(frame) = self.ep.poll_decoded() {
            let CtrlBody::Response(resp) = frame.body else {
                continue;
            };
            if matches!(resp, CtrlResponse::Telemetry { .. }) {
                self.counts.telemetry_frames += 1;
                continue;
            }
            let (op, submitted_at) = self
                .in_flight
                .pop_front()
                .expect("a response for every request, in order");
            match (resp, op) {
                (CtrlResponse::Ok { .. }, Op::AddVnic) => self.late_since = Some(self.now.0),
                (CtrlResponse::Ok { .. }, Op::Swap) => {
                    self.counts.swap_drain.record(self.now.0 - submitted_at);
                }
                (CtrlResponse::Ok { .. }, _) => {}
                (CtrlResponse::Rejected { .. }, Op::Reject) => self.counts.rejections += 1,
                _ => self.counts.errors += 1,
            }
        }
    }

    /// One cycle boundary plus the cycle after it.
    fn step(&mut self, arrivals: bool, rec: &Recorder) {
        let t = self.now.0;
        let mut queued = None;
        if arrivals {
            let _s = rec.span("rx_frame");
            if t.is_multiple_of(BASE_PERIOD) {
                self.offer(BASE, 80);
            }
            if self
                .late_since
                .is_some_and(|since| (t - since).is_multiple_of(LATE_PERIOD))
            {
                self.offer(LATE, 443);
            }
        }
        if arrivals && t > 0 && t.is_multiple_of(SCRIPT_PERIOD) {
            let (op, req) = self.script_request(self.next_step);
            self.next_step += 1;
            if op == Op::RemoveVnic {
                // A draining vNIC admits nothing; stop offering to it.
                self.late_since = None;
            }
            self.submit(op, req);
            queued = Some(op);
        } else if t == 0 {
            queued = Some(Op::Subscribe);
        }
        {
            let _s = rec.span(queued.map_or("service.telemetry", Op::span));
            self.ep.service(&mut self.nic, self.now);
        }
        self.collect_responses();
        {
            let _s = rec.span("tick");
            self.nic.tick(self.now);
        }
        self.now = self.now.next();
        {
            let _s = rec.span("take_wire_tx");
            self.wire.clear();
            self.nic.drain_wire_tx_into(&mut self.wire);
        }
    }
}

impl Rig for CtlRig {
    fn set_mode(&mut self, mode: Mode) {
        assert!(mode == Mode::Default, "ctl_churn is stepped by the harness");
    }

    fn attach_tracer(&mut self, tracer: &Tracer) {
        self.nic.attach_tracer(tracer);
    }

    fn advance(&mut self, cycles: u64, rec: &Recorder) {
        for _ in 0..cycles {
            self.step(self.now.0 < self.horizon, rec);
        }
    }

    fn drain(&mut self, rec: &Recorder) {
        for _ in 0..DRAIN_CAP {
            if self.nic.is_quiescent() && self.in_flight.is_empty() {
                break;
            }
            self.step(false, rec);
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            now: self.now.0,
            offered: self.offered,
            delivered: self.nic.stats().tx_wire,
            skipped: 0,
        }
    }

    fn outcome(&self) -> Outcome {
        let stats = self.nic.stats();
        let mut gate_failures = Vec::new();
        if !self.nic.is_quiescent() || !self.in_flight.is_empty() {
            gate_failures.push(format!(
                "not quiescent after a {DRAIN_CAP}-cycle drain ({} requests unanswered)",
                self.in_flight.len()
            ));
        }
        let c = self.nic.conservation();
        if !c.holds() {
            gate_failures.push(format!("NIC conservation violated: {c:?}"));
        }
        for tenant in [BASE, LATE] {
            if let Some(tc) = self.nic.tenant_conservation(tenant) {
                if !tc.holds() {
                    gate_failures
                        .push(format!("tenant {} conservation violated: {tc:?}", tenant.0));
                }
            }
        }
        if self.counts.errors > 0 {
            gate_failures.push(format!(
                "{} control requests answered off-script",
                self.counts.errors
            ));
        }
        if self.offered != stats.rx_frames {
            gate_failures.push(format!(
                "offered {} frames but the NIC counted {}",
                self.offered, stats.rx_frames
            ));
        }
        Outcome {
            attempted: self.offered,
            failed: self.offered - stats.tx_wire.min(self.offered),
            latency: stats.latency_of(Priority::Normal).summary(),
            gate_failures,
        }
    }

    fn export_metrics(&self, m: &mut MetricsRegistry) {
        self.nic.export_metrics(m);
    }

    fn extra_counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ctrl.commits", self.ep.epoch() as f64),
            ("ctrl.rejections", self.counts.rejections as f64),
            ("ctrl.telemetry_frames", self.counts.telemetry_frames as f64),
            (
                "ctrl.swap_drain_cycles_p50",
                self.counts.swap_drain.p50() as f64,
            ),
        ]
    }
}
