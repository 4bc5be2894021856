//! The §3.2 end-to-end scenario: a multi-tenant, geodistributed KVS.
//!
//! Everything in the paper's walk-through happens here, with real
//! bytes end to end:
//!
//! * WAN tenants' requests arrive ESP-encrypted; the pipeline routes
//!   them to the IPSec engine, which decrypts and reinjects for a
//!   second pipeline pass (two passes total — §3.1.2's target).
//! * GETs hit the on-NIC location cache: hits go to the RDMA engine,
//!   which DMA-reads the value from host memory and injects a reply
//!   that the pipeline switches to the right Ethernet port — the CPU
//!   never sees the request.
//! * Misses are delivered to host memory (DMA + PCIe interrupt); a
//!   host model replies after a software service time.
//! * SETs are appended to the host log by the DMA engine and cached.
//! * Replies to WAN clients are re-encrypted on the way out.
//!
//! The scenario verifies every reply's *value bytes* against the
//! deterministic store contents, so a routing or engine bug cannot
//! hide behind plausible-looking latency numbers.

use std::collections::HashMap;

use bytes::Bytes;
use engines::dma::{DmaConfig, DmaEngine};
use engines::ipsec::{decrypt_frame, encrypt_frame, IpsecEngine, SecurityAssoc, TunnelConfig};
use engines::kvs_cache::KvsCacheEngine;
use engines::mac::MacEngine;
use engines::pcie::PcieEngine;
use engines::rdma::RdmaEngine;
use engines::tile::TileConfig;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineId;
use packet::headers::{build_udp_frame, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr, UdpHeader};
use packet::kvs::{KvsOp, KvsRequest};
use packet::message::{Message, MessageKind, Priority, TenantId};
use rmt::pipeline::PipelineConfig;
use sched::admission::AdmissionPolicy;
use sim_core::clock::{drive, Driven};
use sim_core::events::EventQueue;
use sim_core::stats::{Histogram, Summary};
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use workloads::kvs::{KvsWorkload, KvsWorkloadConfig, TenantSpec};

use crate::nic::{NicBuilder, NicConfig, PanicNic};
use crate::programs::{kvs_program, KvsProgramSpec, SlackProfile};

/// KVS scenario configuration.
#[derive(Debug, Clone)]
pub struct KvsScenarioConfig {
    /// Mesh shape.
    pub topology: Topology,
    /// Channel width in bits.
    pub width_bits: u64,
    /// Parallel pipelines.
    pub pipelines: u32,
    /// Tenant traffic specs (see [`workloads::kvs`]).
    pub tenants: Vec<TenantSpec>,
    /// Keys per tenant.
    pub keys_per_tenant: usize,
    /// Zipf exponent.
    pub zipf_theta: f64,
    /// Hot keys per tenant warmed into the on-NIC cache.
    pub cached_hot_keys: usize,
    /// DMA engine model (contention knobs live here).
    pub dma: DmaConfig,
    /// Host software service time for GET misses, in cycles.
    pub host_service_cycles: u64,
    /// Slack budgets for the pipeline program.
    pub slack: SlackProfile,
    /// Admission policy at the DMA engine's scheduling queue.
    pub dma_admission: AdmissionPolicy,
    /// Seed.
    pub seed: u64,
}

impl KvsScenarioConfig {
    /// A reasonable two-tenant baseline: a latency-sensitive LAN
    /// tenant and a bulk WAN tenant.
    #[must_use]
    pub fn two_tenant_default() -> KvsScenarioConfig {
        use workloads::arrivals::ArrivalProcess;
        KvsScenarioConfig {
            topology: Topology::mesh6x6(),
            width_bits: 64,
            pipelines: 2,
            tenants: vec![
                TenantSpec {
                    tenant: TenantId(1),
                    arrivals: ArrivalProcess::periodic(1, 300),
                    priority: Priority::Latency,
                    get_ratio: 0.95,
                    wan: false,
                    value_size: 64,
                    zipf_theta: None,
                },
                TenantSpec {
                    tenant: TenantId(2),
                    arrivals: ArrivalProcess::periodic(1, 200),
                    priority: Priority::Bulk,
                    get_ratio: 0.5,
                    wan: true,
                    value_size: 256,
                    zipf_theta: None,
                },
            ],
            keys_per_tenant: 1000,
            zipf_theta: 0.99,
            cached_hot_keys: 100,
            dma: DmaConfig::default(),
            host_service_cycles: 2500, // 5 us at 500 MHz
            slack: SlackProfile::default(),
            dma_admission: AdmissionPolicy::TailDrop,
            seed: 7,
        }
    }
}

/// Per-tenant results.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: TenantId,
    /// GETs issued.
    pub gets: u64,
    /// SETs issued.
    pub sets: u64,
    /// Correct replies received.
    pub replies_ok: u64,
    /// Replies whose value bytes were wrong.
    pub replies_bad: u64,
    /// End-to-end request→reply latency (cycles).
    pub latency: Summary,
}

/// Scenario-level results.
#[derive(Debug, Clone)]
pub struct KvsReport {
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantReport>,
    /// Latency of cache-hit (NIC-only, CPU-bypass) GETs.
    pub hit_path: Summary,
    /// Latency of miss (host software) GETs.
    pub host_path: Summary,
    /// Cache hits observed at the engine.
    pub cache_hits: u64,
    /// Cache misses observed at the engine.
    pub cache_misses: u64,
    /// GETs still unanswered at the end of the run.
    pub unanswered: u64,
    /// Host interrupts raised.
    pub interrupts: u64,
}

struct Outstanding {
    tenant_idx: usize,
    issued: Cycle,
    key: u64,
    cached: bool,
}

struct TenantMetrics {
    tenant: TenantId,
    gets: u64,
    sets: u64,
    replies_ok: u64,
    replies_bad: u64,
    latency: Histogram,
}

/// The assembled scenario.
pub struct KvsScenario {
    config: KvsScenarioConfig,
    nic: PanicNic,
    workload: KvsWorkload,
    eth_lan: EngineId,
    eth_wan: EngineId,
    dma: EngineId,
    cache: EngineId,
    pcie: EngineId,
    /// Client-side crypto state.
    client_tunnel: TunnelConfig,
    /// The NIC → WAN-client association, as the table `decrypt_frame`
    /// looks a reply's SPI up in.
    client_sas: HashMap<u32, SecurityAssoc>,
    client_seq: u32,
    outstanding: HashMap<u32, Outstanding>,
    host_events: EventQueue<(Bytes, TenantId, Priority)>,
    metrics: Vec<TenantMetrics>,
    hit_latency: Histogram,
    host_latency: Histogram,
    now: Cycle,
    /// Whether [`KvsScenario::run`] may jump over provably idle cycles
    /// (byte-identical either way; see `docs/PERF.md`).
    fastforward: bool,
    /// Cycles skipped by fast-forward so far.
    skipped: u64,
    /// Reused drain buffers for the NIC's host deliveries and wire
    /// egress (empty between ticks).
    host_scratch: Vec<Message>,
    wire_scratch: Vec<Message>,
}

impl std::fmt::Debug for KvsScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvsScenario")
            .field("client_seq", &self.client_seq)
            .field("outstanding", &self.outstanding.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl KvsScenario {
    /// The inbound security association (clients → NIC), shared by the
    /// NIC's IPSec engine and the scenario's client-side crypto model.
    fn client_in_sa() -> SecurityAssoc {
        SecurityAssoc {
            spi: 0x1001,
            key: 0x00c0_ffee_0000_aaaa,
        }
    }

    /// The outbound tunnel association (NIC → WAN clients).
    fn nic_wan_sa() -> SecurityAssoc {
        SecurityAssoc {
            spi: 0x2002,
            key: 0x00d0_0dad_0000_bbbb,
        }
    }

    /// Assembles the NIC builder (engines, portals, program) without
    /// building: the shared seam between [`KvsScenario::new`] and
    /// [`KvsScenario::lint_spec`]. Engine ids are fixed by declaration
    /// order (asserted inside): `eth-lan`=0, `eth-wan`=1, `ipsec`=2,
    /// `kvs-cache`=3, `rdma`=4, `dma`=5, `pcie`=6.
    fn builder_for(config: &KvsScenarioConfig) -> NicBuilder {
        let freq = Freq::PANIC_DEFAULT;
        let mut b = PanicNic::builder(NicConfig {
            topology: config.topology,
            width_bits: config.width_bits,
            router: RouterConfig::default(),
            pipeline: PipelineConfig {
                parallel: config.pipelines,
                depth: 18,
                freq,
            },
            pcie_flush_interval: 5000,
        });

        // Engine ids are sequential; later constructors need earlier
        // ids, so the order here is load-bearing (asserted below).
        let eth_lan = b.engine(
            Box::new(MacEngine::new("eth-lan", Bandwidth::gbps(100), freq)),
            TileConfig::default(),
        );
        let eth_wan = b.engine(
            Box::new(MacEngine::new("eth-wan", Bandwidth::gbps(100), freq)),
            TileConfig::default(),
        );
        assert_eq!((eth_lan, eth_wan), (EngineId(0), EngineId(1)));
        let ipsec_id = EngineId(2);
        let cache_id = EngineId(3);
        let rdma_id = EngineId(4);
        let dma_id = EngineId(5);
        let pcie_id = EngineId(6);

        let mut ipsec = IpsecEngine::new("ipsec", 1, 8);
        // Inbound SA: clients -> NIC. Outbound tunnel: NIC -> clients.
        ipsec.install_sa(Self::client_in_sa());
        ipsec.set_tunnel(TunnelConfig {
            sa: Self::nic_wan_sa(),
            outer_src_mac: MacAddr::for_port(1),
            outer_dst_mac: MacAddr::for_port(0xbeef),
            outer_src_ip: Ipv4Addr::new(10, 1, 0, 0),
            outer_dst_ip: Ipv4Addr::new(198, 51, 0, 1),
        });
        assert_eq!(b.engine(Box::new(ipsec), TileConfig::default()), ipsec_id);

        assert_eq!(
            b.engine(
                Box::new(KvsCacheEngine::new(
                    "kvs-cache",
                    cache_id,
                    config.cached_hot_keys * config.tenants.len().max(1) + 16,
                    rdma_id,
                    dma_id,
                )),
                TileConfig::default(),
            ),
            cache_id
        );
        assert_eq!(
            b.engine(
                Box::new(RdmaEngine::new("rdma", rdma_id, dma_id)),
                TileConfig::default(),
            ),
            rdma_id
        );
        assert_eq!(
            b.engine(
                Box::new(DmaEngine::new("dma", 5, config.dma, 8, Some(pcie_id))),
                TileConfig {
                    queue_capacity: 256,
                    admission: config.dma_admission,
                    ..TileConfig::default()
                },
            ),
            dma_id
        );
        assert_eq!(
            b.engine(
                Box::new(PcieEngine::new("pcie", 6, 8)),
                TileConfig::default()
            ),
            pcie_id
        );
        for _ in 0..config.pipelines {
            let _ = b.rmt_portal();
        }

        b.program(kvs_program(&KvsProgramSpec {
            ipsec: ipsec_id,
            kvs_cache: cache_id,
            dma: dma_id,
            eth_lan,
            eth_wan,
            latency_tenants: config
                .tenants
                .iter()
                .filter(|t| t.priority == Priority::Latency)
                .map(|t| t.tenant.0)
                .collect(),
            slack: config.slack,
        }));
        b
    }

    /// The plain-data spec of the NIC this configuration would build,
    /// for standalone linting (the `panic-lint` CLI) without paying for
    /// construction or simulation.
    #[must_use]
    pub fn lint_spec(config: &KvsScenarioConfig) -> panic_verify::NicSpec {
        let mut spec = Self::builder_for(config).to_spec();
        spec.arrivals = config
            .tenants
            .iter()
            .map(|t| {
                let (num, den) = t.arrivals.rate();
                panic_verify::ArrivalSpec::periodic(format!("tenant{}", t.tenant.0), num, den)
            })
            .collect();
        spec
    }

    /// Builds the scenario: NIC, engines, program, warm cache, store.
    ///
    /// # Panics
    /// Panics if the configuration fails static verification.
    #[must_use]
    pub fn new(config: KvsScenarioConfig) -> KvsScenario {
        let b = Self::builder_for(&config);
        // Ids fixed by `builder_for`'s declaration order.
        let (eth_lan, eth_wan) = (EngineId(0), EngineId(1));
        let cache_id = EngineId(3);
        let dma_id = EngineId(5);
        let pcie_id = EngineId(6);
        let mut nic = b.build();

        // Warm the cache and pre-populate the host store for the hot
        // keys of every tenant.
        let mut installs: Vec<(u64, u64, u32, Bytes)> = Vec::new();
        {
            let cache_tile = nic.tile(cache_id).expect("cache tile");
            let cache = cache_tile
                .offload_as::<KvsCacheEngine>()
                .expect("cache engine");
            for spec in &config.tenants {
                for rank in 0..config.cached_hot_keys.min(config.keys_per_tenant) {
                    let key = KvsWorkload::key_for(spec.tenant, rank);
                    let value = KvsWorkload::value_for(key, spec.value_size);
                    let addr = cache.slot_addr(key);
                    installs.push((key, addr, value.len() as u32, value));
                }
            }
        }
        {
            let dma_tile = nic.tile_mut(dma_id).expect("dma tile");
            let dma = dma_tile.offload_as_mut::<DmaEngine>().expect("dma engine");
            for (_, addr, _, value) in &installs {
                dma.host_mut().write(*addr, value);
            }
        }
        {
            let cache_tile = nic.tile_mut(cache_id).expect("cache tile");
            let cache = cache_tile
                .offload_as_mut::<KvsCacheEngine>()
                .expect("cache engine");
            for (key, addr, len, _) in &installs {
                cache.install(*key, *addr, *len);
            }
        }

        let metrics = config
            .tenants
            .iter()
            .map(|t| TenantMetrics {
                tenant: t.tenant,
                gets: 0,
                sets: 0,
                replies_ok: 0,
                replies_bad: 0,
                latency: Histogram::new(),
            })
            .collect();

        let workload = KvsWorkload::new(KvsWorkloadConfig {
            tenants: config.tenants.clone(),
            keys_per_tenant: config.keys_per_tenant,
            zipf_theta: config.zipf_theta,
            seed: config.seed,
            partitioned_keys: false,
        });

        KvsScenario {
            nic,
            workload,
            eth_lan,
            eth_wan,
            dma: dma_id,
            cache: cache_id,
            pcie: pcie_id,
            client_tunnel: TunnelConfig {
                sa: Self::client_in_sa(),
                outer_src_mac: MacAddr::for_port(0xbeef),
                outer_dst_mac: MacAddr::for_port(1),
                outer_src_ip: Ipv4Addr::new(198, 51, 0, 1),
                outer_dst_ip: Ipv4Addr::new(10, 1, 0, 0),
            },
            client_sas: HashMap::from([(Self::nic_wan_sa().spi, Self::nic_wan_sa())]),
            client_seq: 0,
            outstanding: HashMap::new(),
            host_events: EventQueue::new(),
            metrics,
            hit_latency: Histogram::new(),
            host_latency: Histogram::new(),
            now: Cycle::ZERO,
            fastforward: true,
            skipped: 0,
            host_scratch: Vec::new(),
            wire_scratch: Vec::new(),
            config,
        }
    }

    /// Enables or disables quiescence fast-forward for subsequent
    /// [`KvsScenario::run`] calls. On by default; both modes produce
    /// byte-identical traces, metrics, and reports
    /// (`tests/fastforward_equiv.rs` holds the line).
    pub fn set_fastforward(&mut self, on: bool) {
        self.fastforward = on;
    }

    /// No-op: the event kernel is gone. Kept only because
    /// `benchmark/src/rigs/kvs.rs` still calls it (its `Event` mode
    /// then runs fast-forward); goes in the benchmark-only PR.
    #[doc(hidden)]
    pub fn set_event_driven(&mut self, _on: bool) {}

    /// Cycles fast-forward has skipped so far.
    #[must_use]
    pub fn cycles_skipped(&self) -> u64 {
        self.skipped
    }

    /// The NIC under test.
    #[must_use]
    pub fn nic(&self) -> &PanicNic {
        &self.nic
    }

    /// Attaches `tracer` to every component of the NIC under test
    /// (see [`PanicNic::attach_tracer`]).
    pub fn attach_tracer(&mut self, tracer: &trace::Tracer) {
        self.nic.attach_tracer(tracer);
    }

    /// Exports the NIC's metrics into `m`
    /// (see [`PanicNic::export_metrics`]).
    pub fn export_metrics<S: trace::MetricSink + ?Sized>(&self, m: &mut S) {
        self.nic.export_metrics(m);
    }

    /// Builds a host reply for a delivered GET frame.
    fn build_host_reply(frame: &[u8], value: Bytes) -> Option<(Bytes, u16)> {
        let (eth, n1) = EthernetHeader::parse(frame).ok()?;
        let (ip, n2) = Ipv4Header::parse(&frame[n1..]).ok()?;
        let (udp, n3) = UdpHeader::parse(&frame[n1 + n2..]).ok()?;
        let req = KvsRequest::decode(&frame[n1 + n2 + n3..]).ok()?;
        if req.op != KvsOp::Get {
            return None;
        }
        let reply = req.reply_with(value);
        let tenant = req.tenant;
        Some((
            build_udp_frame(
                EthernetHeader {
                    dst: eth.src,
                    src: eth.dst,
                    ethertype: eth.ethertype,
                },
                Ipv4Header {
                    tos: ip.tos,
                    total_len: 0,
                    ident: ip.ident,
                    ttl: 64,
                    protocol: 0,
                    src: ip.dst,
                    dst: ip.src,
                },
                UdpHeader {
                    src_port: udp.dst_port,
                    dst_port: udp.src_port,
                    len: 0,
                    checksum: 0,
                },
                &reply.encode(),
            ),
            tenant,
        ))
    }

    /// One simulation cycle.
    fn tick(&mut self, now: Cycle) {
        // 1. New client requests.
        for event in self.workload.tick() {
            let port = if event.wan {
                self.eth_wan
            } else {
                self.eth_lan
            };
            let frame = if event.wan {
                let seq = self.client_seq;
                self.client_seq += 1;
                encrypt_frame(&event.frame, &self.client_tunnel, seq)
            } else {
                event.frame.clone()
            };
            self.nic
                .rx_frame(port, frame, event.tenant, event.priority, now);
            let m = &mut self.metrics[event.tenant_idx];
            match event.request.op {
                KvsOp::Get => {
                    m.gets += 1;
                    let rank = (event.request.key & 0xffff_ffff) as usize;
                    self.outstanding.insert(
                        event.request.request_id,
                        Outstanding {
                            tenant_idx: event.tenant_idx,
                            issued: now,
                            key: event.request.key,
                            cached: rank < self.config.cached_hot_keys,
                        },
                    );
                }
                KvsOp::Set => m.sets += 1,
                _ => {}
            }
        }

        // 2. NIC cycle.
        self.nic.tick(now);

        // 3. Host software: answer delivered GETs after a service time.
        self.nic.drain_host_rx_into(&mut self.host_scratch);
        for msg in &self.host_scratch {
            if msg.kind != MessageKind::EthernetFrame {
                continue; // interrupts etc.
            }
            let key_value = |key: u64, idx: usize| {
                KvsWorkload::value_for(key, self.config.tenants[idx].value_size)
            };
            // Peek the request to find the tenant's value size.
            if let Some(req) = Self::peek_kvs(&msg.payload) {
                if req.op == KvsOp::Get {
                    let idx = self
                        .config
                        .tenants
                        .iter()
                        .position(|t| t.tenant.0 == req.tenant)
                        .unwrap_or(0);
                    let value = key_value(req.key, idx);
                    if let Some((reply, tenant)) = Self::build_host_reply(&msg.payload, value) {
                        self.host_events.schedule(
                            now + Cycles(self.config.host_service_cycles),
                            (reply, TenantId(tenant), msg.priority),
                        );
                    }
                }
            }
        }
        self.host_scratch.clear();
        while let Some((reply, tenant, priority)) = self.host_events.pop_due(now) {
            self.nic.inject_from(self.dma, reply, tenant, priority, now);
        }

        // 4. Wire egress: decrypt, decode, verify.
        self.nic.drain_wire_tx_into(&mut self.wire_scratch);
        for msg in &self.wire_scratch {
            let inner: Bytes = match decrypt_frame(&msg.payload, &self.client_sas) {
                Some(plain) => plain,
                None => msg.payload.clone(), // plaintext LAN reply
            };
            let Some(req) = Self::peek_kvs(&inner) else {
                continue;
            };
            if req.op != KvsOp::Reply {
                continue;
            }
            let Some(out) = self.outstanding.remove(&req.request_id) else {
                continue;
            };
            let m = &mut self.metrics[out.tenant_idx];
            let expect =
                KvsWorkload::value_for(out.key, self.config.tenants[out.tenant_idx].value_size);
            if req.value == expect {
                m.replies_ok += 1;
            } else {
                m.replies_bad += 1;
            }
            let lat = now.saturating_since(out.issued).count();
            m.latency.record(lat);
            if out.cached {
                self.hit_latency.record(lat);
            } else {
                self.host_latency.record(lat);
            }
        }
        self.wire_scratch.clear();
    }

    fn peek_kvs(frame: &[u8]) -> Option<KvsRequest> {
        let (_, n1) = EthernetHeader::parse(frame).ok()?;
        let (ip, n2) = Ipv4Header::parse(&frame[n1..]).ok()?;
        if ip.protocol != packet::headers::ipproto::UDP {
            return None;
        }
        let (_, n3) = UdpHeader::parse(&frame[n1 + n2..]).ok()?;
        KvsRequest::decode(&frame[n1 + n2 + n3..]).ok()
    }

    /// Runs `cycles` cycles, fast-forwarding over provably idle gaps
    /// unless [`KvsScenario::set_fastforward`] disabled it.
    pub fn run(&mut self, cycles: u64) {
        let mode = super::advance_mode(self.fastforward);
        let start = self.now;
        let (now, skipped) = drive(self, start, cycles, mode);
        self.now = now;
        self.skipped += skipped;
    }

    /// Builds the report.
    #[must_use]
    pub fn report(&self) -> KvsReport {
        let cache = self
            .nic
            .tile(self.cache)
            .and_then(|t| t.offload_as::<KvsCacheEngine>());
        let pcie = self
            .nic
            .tile(self.pcie)
            .and_then(|t| t.offload_as::<PcieEngine>());
        KvsReport {
            tenants: self
                .metrics
                .iter()
                .map(|m| TenantReport {
                    tenant: m.tenant,
                    gets: m.gets,
                    sets: m.sets,
                    replies_ok: m.replies_ok,
                    replies_bad: m.replies_bad,
                    latency: m.latency.summary(),
                })
                .collect(),
            hit_path: self.hit_latency.summary(),
            host_path: self.host_latency.summary(),
            cache_hits: cache.map_or(0, |c| c.hits),
            cache_misses: cache.map_or(0, |c| c.misses),
            unanswered: self.outstanding.len() as u64,
            interrupts: pcie.map_or(0, |p| p.interrupts),
        }
    }
}

/// The NIC plus the tenants' arrival processes and the host-software
/// completion queue.
impl Driven for KvsScenario {
    fn step(&mut self, now: Cycle) {
        self.tick(now);
    }

    fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle)) {
        if let Some(h) = self.nic.next_activity(now) {
            post(h);
        }
        // "Never" saturates to `Cycle(u64::MAX)`, clamped to the run's end.
        post(Cycle(now.0.saturating_add(self.workload.cycles_to_next())));
        if let Some(due) = self.host_events.next_due() {
            post(due);
        }
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.nic.skip_idle(from, to);
        self.workload.skip(to.0 - from.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> KvsScenarioConfig {
        use workloads::arrivals::ArrivalProcess;
        let mut c = KvsScenarioConfig::two_tenant_default();
        c.keys_per_tenant = 50;
        c.cached_hot_keys = 10;
        c.tenants[0].arrivals = ArrivalProcess::periodic(1, 200);
        c.tenants[1].arrivals = ArrivalProcess::periodic(1, 400);
        c
    }

    /// PV501 and the clock driver agree: a configuration `lint_spec`
    /// flags skips no cycle while its every-cycle source is live, and
    /// the shipped default is clean and does skip.
    #[test]
    fn pv501_agrees_with_the_driver() {
        use workloads::arrivals::ArrivalProcess;
        let run = |c: KvsScenarioConfig| {
            let report = panic_verify::verify(&KvsScenario::lint_spec(&c));
            assert!(report.is_clean(), "PV501 is a warning, not an error");
            let mut s = KvsScenario::new(c);
            s.run(3_000);
            (report.has(panic_verify::Code::PV501), s.cycles_skipped())
        };
        let mut flooded = small_config();
        flooded.tenants[1].arrivals = ArrivalProcess::periodic(1, 1);
        assert_eq!(run(flooded), (true, 0));
        let (flagged, skipped) = run(KvsScenarioConfig::two_tenant_default());
        assert!(!flagged);
        assert!(skipped > 0, "skipped {skipped}");
    }

    #[test]
    fn fast_forward_matches_stepped_run_exactly() {
        let build = |tracer: &trace::Tracer| {
            let mut s = KvsScenario::new(small_config());
            s.attach_tracer(tracer);
            s
        };
        let t1 = trace::Tracer::chrome();
        let mut stepped = build(&t1);
        stepped.set_fastforward(false);
        stepped.run(30_000);
        let t2 = trace::Tracer::chrome();
        let mut ff = build(&t2);
        ff.run(30_000);
        assert!(
            ff.cycles_skipped() > 3_000,
            "skipped {}",
            ff.cycles_skipped()
        );
        let (ra, rb) = (stepped.report(), ff.report());
        assert_eq!(
            format!("{ra:?}"),
            format!("{rb:?}"),
            "reports must be identical"
        );
        let (mut m1, mut m2) = (trace::MetricsRegistry::new(), trace::MetricsRegistry::new());
        stepped.export_metrics(&mut m1);
        ff.export_metrics(&mut m2);
        assert_eq!(m1.to_json(), m2.to_json());
        assert_eq!(
            t1.chrome_json().expect("chrome tracer"),
            t2.chrome_json().expect("chrome tracer"),
            "Chrome traces must be byte-identical"
        );
    }

    #[test]
    fn end_to_end_replies_are_correct() {
        let mut s = KvsScenario::new(small_config());
        s.run(120_000);
        let r = s.report();
        let total_gets: u64 = r.tenants.iter().map(|t| t.gets).sum();
        let total_ok: u64 = r.tenants.iter().map(|t| t.replies_ok).sum();
        let total_bad: u64 = r.tenants.iter().map(|t| t.replies_bad).sum();
        assert!(total_gets > 300, "gets {total_gets}");
        assert_eq!(total_bad, 0, "every reply's value bytes verified");
        // Nearly all GETs answered (a few in flight at the end).
        assert!(
            total_ok + r.unanswered >= total_gets,
            "ok {total_ok} + unanswered {} vs gets {total_gets}",
            r.unanswered
        );
        assert!(
            total_ok as f64 >= total_gets as f64 * 0.9,
            "ok {total_ok} of {total_gets}"
        );
        assert!(r.cache_hits > 0, "hot keys hit the cache");
        assert!(r.cache_misses > 0, "cold keys miss");
    }

    #[test]
    fn cache_hits_are_much_faster_than_host_path() {
        let mut s = KvsScenario::new(small_config());
        s.run(120_000);
        let r = s.report();
        assert!(r.hit_path.count > 20, "hits {}", r.hit_path.count);
        assert!(r.host_path.count > 20, "host {}", r.host_path.count);
        // The host path includes 2500 cycles of software time; the
        // CPU-bypass path must be clearly faster (§2.2's motivation).
        assert!(
            r.hit_path.mean * 1.5 < r.host_path.mean,
            "hit {} vs host {}",
            r.hit_path.mean,
            r.host_path.mean
        );
    }

    #[test]
    fn wan_tenant_round_trips_through_ipsec() {
        let mut s = KvsScenario::new(small_config());
        s.run(120_000);
        let r = s.report();
        // Tenant 2 (WAN, index 1) got correct replies — which requires
        // decrypt on the way in AND encrypt on the way out.
        assert!(r.tenants[1].replies_ok > 50, "{:?}", r.tenants[1]);
        assert_eq!(r.tenants[1].replies_bad, 0);
        // The NIC's IPSec engine did real work both directions.
        let ipsec = s
            .nic()
            .tile(EngineId(2))
            .unwrap()
            .offload_as::<IpsecEngine>()
            .unwrap();
        assert!(ipsec.decrypted > 50);
        assert!(ipsec.encrypted > 50);
        assert_eq!(ipsec.auth_failures, 0);
    }

    #[test]
    fn interrupts_are_coalesced() {
        let mut s = KvsScenario::new(small_config());
        s.run(120_000);
        let r = s.report();
        // Host deliveries happened, and interrupts < deliveries thanks
        // to coalescing (threshold 8).
        let host = s.nic().stats().host_deliveries;
        assert!(r.interrupts > 0);
        assert!(
            r.interrupts < host,
            "interrupts {} vs deliveries {host}",
            r.interrupts
        );
    }

    #[test]
    fn deterministic_reports() {
        let run = || {
            let mut s = KvsScenario::new(small_config());
            s.run(40_000);
            let r = s.report();
            (
                r.tenants
                    .iter()
                    .map(|t| (t.gets, t.replies_ok))
                    .collect::<Vec<_>>(),
                r.cache_hits,
                r.cache_misses,
            )
        };
        assert_eq!(run(), run());
    }
}
