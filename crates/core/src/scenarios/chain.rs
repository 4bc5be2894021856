//! Synthetic offload-chain traffic.
//!
//! Frames arrive at `ports` Ethernet ports at a configured rate, are
//! chained through `chain_len` pass-through offloads by the pipeline,
//! and leave through the *next* port (port `i` → port `i+1 mod P`), so
//! ingress and egress line capacity match. Delivered throughput and
//! latency as functions of chain length are the simulated counterpart
//! of Table 3's analytic chain-length model.

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::message::{Priority, TenantId};
use packet::phv::Field;
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::pipeline::PipelineConfig;
use rmt::program::{ProgramBuilder, RmtProgram};
use rmt::table::{MatchKey, MatchKind, Table, TableEntry};
use sim_core::clock::{drive, Driven};
use sim_core::stats::Summary;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use workloads::arrivals::ArrivalProcess;
use workloads::frames::FrameFactory;

use noc::topology::Coord;

use crate::nic::{NicBuilder, NicConfig, PanicNic};

/// Picks `count` evenly spaced coordinates from `pool` (keeps traffic
/// from concentrating on a few mesh rows, which row-major placement
/// would cause).
fn spread(pool: &[Coord], count: usize) -> Vec<Coord> {
    assert!(count <= pool.len(), "not enough tiles to place engines");
    (0..count)
        .map(|i| pool[i * pool.len() / count.max(1)])
        .collect()
}

/// How engines are assigned to tiles (§6: "How should different
/// engines be placed in this topology?").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Ports on the perimeter, portals central, offloads spread —
    /// the Figure 3c discipline.
    Spread,
    /// Naive row-major fill (ports, then offloads, then portals, in
    /// consecutive tiles) — what you get without thinking about it.
    RowMajor,
}

/// Chain-scenario configuration.
#[derive(Debug, Clone)]
pub struct ChainScenarioConfig {
    /// Mesh shape.
    pub topology: Topology,
    /// Channel width in bits.
    pub width_bits: u64,
    /// Pipeline parallelism.
    pub pipelines: u32,
    /// RMT portal tiles on the mesh (Figure 3c shows a column of RMT
    /// tiles; more portals spread pipeline entry/exit traffic so no
    /// single local port saturates).
    pub portals: usize,
    /// Ethernet ports (ingress and egress).
    pub ports: usize,
    /// Port line rate.
    pub line_rate: Bandwidth,
    /// Offload engines available on the mesh.
    pub num_offloads: usize,
    /// Hops per frame through those offloads.
    pub chain_len: usize,
    /// Per-message service time at each offload (0 = line rate).
    pub offload_service: Cycles,
    /// Offered load per port, as a fraction of min-frame line rate
    /// (1.0 = Table 2's per-port-direction rate).
    pub offered_fraction: f64,
    /// Per-hop slack (None = bulk).
    pub slack: Option<u32>,
    /// Engine-to-tile assignment strategy.
    pub placement: PlacementStrategy,
    /// Inert: chain traffic is periodic, so nothing reads it. Kept only
    /// because `benchmark/src/rigs/chain.rs` sets it; goes in the
    /// benchmark-only PR.
    pub seed: u64,
}

impl Default for ChainScenarioConfig {
    fn default() -> Self {
        ChainScenarioConfig {
            topology: Topology::mesh6x6(),
            width_bits: 64,
            pipelines: 2,
            portals: 4,
            ports: 2,
            line_rate: Bandwidth::gbps(100),
            num_offloads: 8,
            chain_len: 2,
            offload_service: Cycles::ZERO,
            offered_fraction: 0.5,
            slack: Some(500),
            placement: PlacementStrategy::Spread,
            seed: 1,
        }
    }
}

/// Results of a chain-scenario run.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// Frames offered to the NIC.
    pub offered: u64,
    /// Frames that completed their chain and left on the wire.
    pub delivered: u64,
    /// Delivered frames per cycle (×freq = pps).
    pub delivered_per_cycle: f64,
    /// End-to-end latency summary (cycles).
    pub latency: Summary,
    /// Scheduling-queue drops across all tiles.
    pub sched_drops: u64,
    /// Pipeline passes per delivered frame (should be 1.0 here).
    pub pipeline_accepted: u64,
}

/// The chain scenario.
pub struct ChainScenario {
    config: ChainScenarioConfig,
    nic: PanicNic,
    ports: Vec<EngineId>,
    offloads: Vec<EngineId>,
    arrivals: Vec<ArrivalProcess>,
    factory: FrameFactory,
    offered: u64,
    now: Cycle,
    /// Whether [`ChainScenario::run`]/[`ChainScenario::drain`] may jump
    /// over provably idle cycles (byte-identical either way; see
    /// `docs/PERF.md`).
    fastforward: bool,
    /// Set by [`ChainScenario::drain`]: arrivals off, stop at quiescence.
    draining: bool,
    /// Cycles skipped by fast-forward so far.
    skipped: u64,
    /// Reusable egress drain buffer (steady-state runs allocate
    /// nothing per cycle).
    wire_scratch: Vec<packet::message::Message>,
}

impl std::fmt::Debug for ChainScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainScenario")
            .field("ports", &self.ports.len())
            .field("offloads", &self.offloads.len())
            .field("offered", &self.offered)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

/// Number of rotated chain variants: packets are spread across engine
/// instances by the low bits of their IPv4 ident, realizing Table 3's
/// "packets are uniformly distributed across offloads" assumption and
/// keeping any single tile's local port below channel capacity.
/// Variants start at evenly spaced offsets in the offload pool so
/// each engine appears in as few variants as possible.
const CHAIN_VARIANTS: u64 = 8;

/// Builds a program that chains frames from each port through one of
/// [`CHAIN_VARIANTS`] rotated offload chains (selected by IPv4 ident)
/// and out the paired egress port.
fn multi_port_chain_program(
    pairs: &[(EngineId, EngineId)],
    offloads: &[EngineId],
    chain_len: usize,
    slack: Option<u32>,
) -> RmtProgram {
    let expr = match slack {
        Some(s) => SlackExpr::Const(s),
        None => SlackExpr::Bulk,
    };
    let mut table = Table::new(
        "by-ingress-and-flow",
        MatchKind::Ternary(vec![Field::MetaIngress, Field::IpIdent]),
        Action::noop(),
    );
    for &(ingress, egress) in pairs {
        for v in 0..CHAIN_VARIANTS {
            let mut prims: Vec<Primitive> = (0..chain_len)
                .map(|k| {
                    let n = offloads.len();
                    let offset = (v as usize) * n / CHAIN_VARIANTS as usize;
                    Primitive::PushHop {
                        engine: offloads[(offset + k) % n],
                        slack: expr,
                    }
                })
                .collect();
            prims.push(Primitive::PushHop {
                engine: egress,
                slack: expr,
            });
            table.insert(TableEntry {
                key: MatchKey::Ternary(vec![
                    (u64::from(ingress.0), 0xffff),
                    (v, CHAIN_VARIANTS - 1),
                ]),
                priority: 0,
                action: Action::named("chain", prims),
            });
        }
    }
    ProgramBuilder::new("multi-port-chain", ParseGraph::standard(6379))
        .stage(table)
        .build()
}

impl ChainScenario {
    /// Assembles the NIC builder (placement, engines, program) without
    /// building: the shared seam between [`ChainScenario::new`] and
    /// [`ChainScenario::lint_spec`]. Returns the builder plus the port
    /// and offload ids in declaration order.
    fn builder_for(config: &ChainScenarioConfig) -> (NicBuilder, Vec<EngineId>, Vec<EngineId>) {
        assert!(
            config.chain_len == 0 || config.num_offloads > 0,
            "chains need offloads"
        );
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
            pcie_flush_interval: 0,
        });
        if config.placement == PlacementStrategy::RowMajor {
            // Naive fill: consecutive tiles in declaration order.
            let ports: Vec<EngineId> = (0..config.ports)
                .map(|i| {
                    b.engine(
                        Box::new(MacEngine::new(format!("eth{i}"), config.line_rate, freq)),
                        TileConfig::default(),
                    )
                })
                .collect();
            let offloads: Vec<EngineId> = (0..config.num_offloads)
                .map(|i| {
                    b.engine(
                        Box::new(NullOffload::new(
                            format!("off{i}"),
                            EngineClass::Asic,
                            config.offload_service,
                        )),
                        TileConfig::default(),
                    )
                })
                .collect();
            for _ in 0..config.portals.max(1) {
                let _ = b.rmt_portal();
            }
            let pairs: Vec<(EngineId, EngineId)> = (0..config.ports)
                .map(|i| (ports[i], ports[(i + 1) % config.ports]))
                .collect();
            b.program(multi_port_chain_program(
                &pairs,
                &offloads,
                config.chain_len,
                config.slack,
            ));
            return (b, ports, offloads);
        }

        // Placement mirrors Figure 3c: external interfaces (Ethernet
        // ports) on the perimeter, RMT portals near the center, and
        // offloads spread over the remaining tiles — so traffic uses
        // the whole mesh instead of a couple of rows.
        let perimeter: Vec<Coord> = config.topology.edge_coords().collect();
        let interior: Vec<Coord> = config
            .topology
            .coords()
            .filter(|c| !perimeter.contains(c))
            .collect();
        let port_coords = spread(&perimeter, config.ports);
        let n_portals = config.portals.max(1);
        // On skinny meshes every tile is on the perimeter; in that case
        // portals draw from whatever tiles the ports didn't take.
        let interior_free: Vec<Coord> = interior
            .iter()
            .copied()
            .filter(|c| !port_coords.contains(c))
            .collect();
        let perimeter_free: Vec<Coord> = perimeter
            .iter()
            .copied()
            .filter(|c| !port_coords.contains(c))
            .collect();
        let portal_pool = if interior_free.len() >= n_portals {
            &interior_free
        } else {
            &perimeter_free
        };
        let mid = portal_pool.len() / 2;
        let mut portal_coords: Vec<Coord> = Vec::new();
        let mut step = 0usize;
        while portal_coords.len() < n_portals {
            let c = portal_pool[(mid + step * 3) % portal_pool.len()];
            if !portal_coords.contains(&c) {
                portal_coords.push(c);
            }
            step += 1;
            assert!(step < portal_pool.len() * 4, "portal placement failed");
        }
        let offload_pool: Vec<Coord> = config
            .topology
            .coords()
            .filter(|c| !port_coords.contains(c) && !portal_coords.contains(c))
            .collect();
        let offload_coords = spread(&offload_pool, config.num_offloads);

        let ports: Vec<EngineId> = (0..config.ports)
            .map(|i| {
                b.engine_at(
                    port_coords[i],
                    Box::new(MacEngine::new(format!("eth{i}"), config.line_rate, freq)),
                    TileConfig::default(),
                )
            })
            .collect();
        let offloads: Vec<EngineId> = (0..config.num_offloads)
            .map(|i| {
                b.engine_at(
                    offload_coords[i],
                    Box::new(NullOffload::new(
                        format!("off{i}"),
                        EngineClass::Asic,
                        config.offload_service,
                    )),
                    TileConfig::default(),
                )
            })
            .collect();
        for c in &portal_coords {
            let _ = b.rmt_portal_at(*c);
        }

        // Frames from port i leave port i+1; chains rotate across the
        // offload pool per flow so no single mesh path carries all of
        // the load (Table 3's uniform-traffic assumption).
        let pairs: Vec<(EngineId, EngineId)> = (0..config.ports)
            .map(|i| (ports[i], ports[(i + 1) % config.ports]))
            .collect();
        b.program(multi_port_chain_program(
            &pairs,
            &offloads,
            config.chain_len,
            config.slack,
        ));
        (b, ports, offloads)
    }

    /// The plain-data spec of the NIC this configuration would build,
    /// for standalone linting (the `panic-lint` CLI) without paying for
    /// construction or simulation.
    #[must_use]
    pub fn lint_spec(config: &ChainScenarioConfig) -> panic_verify::NicSpec {
        let mut spec = Self::builder_for(config).0.to_spec();
        spec.arrivals = Self::arrival_processes(config)
            .iter()
            .enumerate()
            .map(|(p, a)| {
                let (num, den) = a.rate();
                panic_verify::ArrivalSpec::periodic(format!("port{p}"), num, den)
            })
            .collect();
        spec
    }

    /// The per-port arrival processes `config` induces: the offered
    /// fraction of min-frame line rate, expressed exactly as a
    /// periodic per-cycle rate.
    fn arrival_processes(config: &ChainScenarioConfig) -> Vec<ArrivalProcess> {
        let mac_probe = MacEngine::new("probe", config.line_rate, Freq::PANIC_DEFAULT);
        let ser = mac_probe.serialization_cycles(64).count();
        // rate per cycle = offered_fraction / ser  -> periodic(num, den)
        let den = (ser as f64 * 1000.0 / config.offered_fraction).round() as u64;
        (0..config.ports)
            .map(|_| ArrivalProcess::periodic(1000, den.max(1000)))
            .collect()
    }

    /// Builds the scenario.
    ///
    /// # Panics
    /// Panics if `chain_len > 0` with no offloads, if the chain would
    /// exceed the chain-header limit, if the mesh is too small, or if
    /// the configuration fails static verification.
    #[must_use]
    pub fn new(config: ChainScenarioConfig) -> ChainScenario {
        let (b, ports, offloads) = Self::builder_for(&config);

        // Offered rate: fraction of min-frame line rate. One min frame
        // per `ser` cycles is line rate for this MAC.
        let arrivals = Self::arrival_processes(&config);

        ChainScenario {
            nic: b.build(),
            ports,
            offloads,
            arrivals,
            factory: FrameFactory::for_nic_port(0),
            offered: 0,
            now: Cycle::ZERO,
            fastforward: true,
            draining: false,
            skipped: 0,
            wire_scratch: Vec::new(),
            config,
        }
    }

    /// Enables or disables quiescence fast-forward for subsequent
    /// [`ChainScenario::run`]/[`ChainScenario::drain`] calls. On by
    /// default; the two modes produce byte-identical traces, metrics,
    /// and reports (`tests/fastforward_equiv.rs` holds the line).
    pub fn set_fastforward(&mut self, on: bool) {
        self.fastforward = on;
    }

    /// No-op: the event kernel is gone. Kept only because
    /// `benchmark/src/rigs/chain.rs` still calls it (its `Event` mode
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

    /// Runs for `cycles` cycles, fast-forwarding over provably idle
    /// gaps unless [`ChainScenario::set_fastforward`] disabled it.
    pub fn run(&mut self, cycles: u64) {
        self.draining = false;
        self.advance(cycles);
    }

    /// Drains in-flight traffic (no new arrivals) until the NIC is
    /// quiescent or `max_cycles` have passed, in the same run mode as
    /// [`ChainScenario::run`].
    pub fn drain(&mut self, max_cycles: u64) {
        self.draining = true;
        self.advance(max_cycles);
    }

    fn advance(&mut self, cycles: u64) {
        let mode = super::advance_mode(self.fastforward);
        let start = self.now;
        let (now, skipped) = drive(self, start, cycles, mode);
        self.now = now;
        self.skipped += skipped;
    }

    /// Builds the report for everything run so far.
    #[must_use]
    pub fn report(&self) -> ChainReport {
        let stats = self.nic.stats();
        let sched_drops: u64 = self
            .offloads
            .iter()
            .chain(self.ports.iter())
            .filter_map(|&id| self.nic.tile(id))
            .map(engines::tile::EngineTile::drops)
            .sum();
        let delivered = stats.tx_wire;
        ChainReport {
            offered: self.offered,
            delivered,
            delivered_per_cycle: if self.now.0 == 0 {
                0.0
            } else {
                delivered as f64 / self.now.0 as f64
            },
            latency: stats.latency_of(Priority::Normal).summary(),
            sched_drops,
            pipeline_accepted: self.nic.pipeline().stats().accepted,
        }
    }

    /// The configured chain length (for sweep labels).
    #[must_use]
    pub fn chain_len(&self) -> usize {
        self.config.chain_len
    }
}

/// The NIC plus its per-port arrival processes; [`ChainScenario::drain`]
/// turns the arrivals off and stops at quiescence.
impl Driven for ChainScenario {
    /// One simulated cycle: arrivals (unless draining), a NIC tick, and
    /// an egress drain (into a reusable buffer — steady state allocates
    /// nothing per cycle).
    fn step(&mut self, now: Cycle) {
        if !self.draining {
            for (i, arr) in self.arrivals.iter_mut().enumerate() {
                if arr.poll() {
                    let frame = self.factory.min_frame(i as u16, 80);
                    self.nic.rx_frame(
                        self.ports[i],
                        frame,
                        TenantId(i as u16),
                        Priority::Normal,
                        now,
                    );
                    self.offered += 1;
                }
            }
        }
        self.nic.tick(now);
        // Egressed frames just leave; drain so memory stays flat.
        self.wire_scratch.clear();
        self.nic.drain_wire_tx_into(&mut self.wire_scratch);
    }

    fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle)) {
        if let Some(h) = self.nic.next_activity(now) {
            post(h);
        }
        if self.draining {
            return;
        }
        // A zero-rate port's "never" saturates to `Cycle(u64::MAX)`,
        // which the driver clamps to the end of the run.
        for a in &self.arrivals {
            post(Cycle(now.0.saturating_add(a.cycles_to_next())));
        }
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.nic.skip_idle(from, to);
        if !self.draining {
            for a in &mut self.arrivals {
                a.skip(to.0 - from.0);
            }
        }
    }

    fn done(&self) -> bool {
        self.draining && self.nic.is_quiescent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_load_delivers_everything() {
        let mut s = ChainScenario::new(ChainScenarioConfig {
            offered_fraction: 0.05,
            chain_len: 3,
            ..ChainScenarioConfig::default()
        });
        s.run(20_000);
        s.drain(20_000);
        let r = s.report();
        assert!(r.offered > 100, "offered {}", r.offered);
        assert_eq!(r.delivered, r.offered, "lossless at light load");
        assert_eq!(r.sched_drops, 0);
        // Every frame used exactly one pipeline pass.
        assert_eq!(r.pipeline_accepted, r.offered);
    }

    #[test]
    fn longer_chains_cost_latency() {
        let run = |len: usize| {
            let mut s = ChainScenario::new(ChainScenarioConfig {
                offered_fraction: 0.05,
                chain_len: len,
                ..ChainScenarioConfig::default()
            });
            s.run(20_000);
            s.drain(20_000);
            s.report().latency.mean
        };
        let short = run(1);
        let long = run(6);
        assert!(
            long > short + 10.0,
            "chain 6 latency {long} should exceed chain 1 {short}"
        );
    }

    #[test]
    fn slow_offload_saturates_throughput() {
        // Offloads at 20 cycles/frame: capacity 1/20 per chain hop.
        // Offered at 25% of 100G line rate (1 frame/16 cycles/port).
        let mut s = ChainScenario::new(ChainScenarioConfig {
            offered_fraction: 0.25,
            chain_len: 1,
            num_offloads: 1,
            offload_service: Cycles(20),
            ..ChainScenarioConfig::default()
        });
        s.run(40_000);
        let r = s.report();
        // Delivered rate pinned near 1/20 = 0.05 frames/cycle.
        assert!(
            (0.035..0.056).contains(&r.delivered_per_cycle),
            "rate {}",
            r.delivered_per_cycle
        );
        assert!(r.delivered < r.offered, "saturated");
    }

    #[test]
    fn fast_forward_matches_stepped_run_exactly() {
        let build = |tracer: &trace::Tracer| {
            let mut s = ChainScenario::new(ChainScenarioConfig {
                offered_fraction: 0.02,
                chain_len: 2,
                ..ChainScenarioConfig::default()
            });
            s.attach_tracer(tracer);
            s
        };
        let t1 = trace::Tracer::chrome();
        let mut stepped = build(&t1);
        stepped.set_fastforward(false);
        stepped.run(5_000);
        stepped.drain(5_000);
        let t2 = trace::Tracer::chrome();
        let mut ff = build(&t2);
        ff.run(5_000);
        ff.drain(5_000);
        assert!(
            ff.cycles_skipped() > 1_000,
            "skipped {}",
            ff.cycles_skipped()
        );
        let (ra, rb) = (stepped.report(), ff.report());
        assert_eq!(ra.offered, rb.offered);
        assert_eq!(ra.delivered, rb.delivered);
        assert_eq!(ra.latency, rb.latency);
        assert_eq!(stepped.now, ff.now, "drain must stop at the same cycle");
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

    /// `seed` is inert: chain traffic is periodic and draws nothing.
    #[test]
    fn seed_changes_no_output() {
        let run = |seed: u64| {
            let mut s = ChainScenario::new(ChainScenarioConfig {
                offered_fraction: 0.3,
                seed,
                ..ChainScenarioConfig::default()
            });
            s.run(5_000);
            s.drain(5_000);
            let mut m = trace::MetricsRegistry::new();
            s.export_metrics(&mut m);
            (format!("{:?}", s.report()), m.to_json())
        };
        let (report, metrics) = run(1);
        assert!(report.contains("delivered: "), "{report}");
        assert_eq!(run(0xDEAD_BEEF), (report, metrics));
    }

    #[test]
    fn zero_chain_is_port_to_port_forwarding() {
        let mut s = ChainScenario::new(ChainScenarioConfig {
            offered_fraction: 0.1,
            chain_len: 0,
            ..ChainScenarioConfig::default()
        });
        s.run(10_000);
        s.drain(10_000);
        let r = s.report();
        assert_eq!(r.delivered, r.offered);
    }
}
