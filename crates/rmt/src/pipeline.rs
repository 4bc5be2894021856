//! The pipeline timing model.
//!
//! §4.2: "given a clock frequency of F and P parallel pipelines, the
//! heavyweight RMT pipeline in PANIC can process F × P packets per
//! second." [`RmtPipeline`] realizes that model cycle by cycle:
//!
//! * each of the `P` parallel pipelines accepts **one** message per
//!   cycle from the shared input queue;
//! * a message emerges `depth` cycles later (parser + stages +
//!   deparser), transformed by the program;
//! * the pipelines are fully pipelined: a new message can enter every
//!   cycle regardless of depth.
//!
//! Neighboring RMT engines "may be configured to independently process
//! messages or be chained to form a longer pipeline" (§3.1.2) — that is
//! the `parallel` / `depth` trade-off in [`PipelineConfig`].

use std::collections::VecDeque;
use std::fmt;

use packet::message::Message;
use sim_core::events::EventQueue;
use sim_core::time::{Cycle, Cycles, Freq};
use trace::{MetricSink, Tracer, TrackId};

use crate::action::Verdict;
use crate::compile::CompiledProgram;
use crate::program::{ProgramScratch, RmtProgram};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Number of parallel pipelines (P in §4.2).
    pub parallel: u32,
    /// Latency through one pipeline in cycles: parser + match+action
    /// stages + deparser.
    pub depth: u32,
    /// Clock frequency (F in §4.2) — used only for reporting rates.
    pub freq: Freq,
}

impl PipelineConfig {
    /// The paper's reference point: two 500 MHz pipelines (⇒ 1000 Mpps)
    /// with a 16-stage depth plus parser and deparser.
    #[must_use]
    pub fn panic_default() -> PipelineConfig {
        PipelineConfig {
            parallel: 2,
            depth: 18,
            freq: Freq::PANIC_DEFAULT,
        }
    }

    /// Peak throughput in packets per second: `F × P`.
    #[must_use]
    pub fn peak_pps(self) -> u64 {
        self.freq.events_per_second(u64::from(self.parallel))
    }
}

/// Counters exposed by the pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Messages accepted into a pipeline.
    pub accepted: u64,
    /// Messages that completed with a Forward or Recirculate verdict.
    pub emitted: u64,
    /// Messages dropped by program verdict.
    pub dropped: u64,
    /// Messages that asked for recirculation.
    pub recirculated: u64,
    /// Cycles in which at least one pipeline slot went unused while the
    /// input queue was empty (idle capacity).
    pub idle_slots: u64,
}

/// A message emerging from the pipeline with its verdict.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The processed message (payload deparsed, chain installed).
    pub msg: Message,
    /// Forward or Recirculate (drops never emerge).
    pub verdict: Verdict,
}

// A `Message` plus the verdict word, moved into and out of the
// in-flight queue once per pass (see the pin in `packet::message`).
const _: () = assert!(std::mem::size_of::<PipelineOutput>() <= 200);

/// The heavyweight RMT pipeline.
#[derive(Debug)]
pub struct RmtPipeline {
    config: PipelineConfig,
    program: RmtProgram,
    /// The program lowered into monomorphized dispatch at construction
    /// time (the "per-spec compilation pass" — `NicBuilder::build()`
    /// reaches this through [`RmtPipeline::new`]). The per-packet path
    /// runs this; `program` stays as the executable reference the
    /// equivalence tests diff against. See [`crate::compile`].
    compiled: CompiledProgram,
    /// Shared input queue feeding all parallel pipelines. Unbounded:
    /// admission control is the *caller's* job (in PANIC, upstream
    /// engines see backpressure through the NoC; in the RMT-only
    /// baseline this queue's growth is itself the measurement).
    input: VecDeque<Message>,
    /// In-flight messages, completing `depth` cycles after acceptance.
    in_flight: EventQueue<PipelineOutput>,
    stats: PipelineStats,
    /// Per-stage table hits, indexed by stage ([`PipelineStats`] is
    /// `Copy`, so the variable-length stage counters live here).
    stage_hits: Vec<u64>,
    /// Per-stage table misses (default action taken), indexed by stage.
    stage_misses: Vec<u64>,
    /// Trace handle (disabled by default; see [`RmtPipeline::attach_tracer`]).
    tracer: Tracer,
    /// The pipeline's track (`rmt.pipeline`).
    track: TrackId,
    /// Reusable per-message program scratch (parse outcome, hop
    /// accumulator, deparse buffer) — keeps the steady-state tick loop
    /// allocation-free (see `docs/PERF.md`).
    scratch: ProgramScratch,
}

impl RmtPipeline {
    /// Builds a pipeline running `program`.
    #[must_use]
    pub fn new(config: PipelineConfig, program: RmtProgram) -> RmtPipeline {
        assert!(config.parallel > 0, "zero pipelines");
        assert!(config.depth > 0, "zero depth");
        let stages = program.stages();
        RmtPipeline {
            config,
            compiled: CompiledProgram::compile(&program),
            program,
            input: VecDeque::new(),
            in_flight: EventQueue::new(),
            stats: PipelineStats::default(),
            stage_hits: vec![0; stages],
            stage_misses: vec![0; stages],
            tracer: Tracer::disabled(),
            track: TrackId(0),
            scratch: ProgramScratch::default(),
        }
    }

    /// Attaches a tracer. The pipeline gets one `rmt.pipeline` track
    /// carrying per-stage `rmt.match` / `rmt.miss` instants, an
    /// `rmt.pipeline` span per traversal (accept → emerge, `depth`
    /// cycles), and an `rmt.backlog` counter. See `docs/TRACING.md`.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.track = tracer.track("rmt.pipeline");
    }

    /// Per-stage table hits since construction, indexed by stage.
    #[must_use]
    pub fn stage_hits(&self) -> &[u64] {
        &self.stage_hits
    }

    /// Per-stage table misses (default action) since construction.
    #[must_use]
    pub fn stage_misses(&self) -> &[u64] {
        &self.stage_misses
    }

    /// Exports pipeline statistics into `m` under `prefix` (usually
    /// `"rmt"`): counters `<prefix>.accepted`, `<prefix>.emitted`,
    /// `<prefix>.dropped`, `<prefix>.recirculated`,
    /// `<prefix>.idle_slots`, and per-stage
    /// `<prefix>.stage.<i>.<table>.hits` / `.misses`.
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S, prefix: impl fmt::Display) {
        m.counter(format_args!("{prefix}.accepted"), self.stats.accepted);
        m.counter(format_args!("{prefix}.emitted"), self.stats.emitted);
        m.counter(format_args!("{prefix}.dropped"), self.stats.dropped);
        m.counter(
            format_args!("{prefix}.recirculated"),
            self.stats.recirculated,
        );
        m.counter(format_args!("{prefix}.idle_slots"), self.stats.idle_slots);
        for (i, table) in self.program.tables().iter().enumerate() {
            let name = table.name();
            m.counter(
                format_args!("{prefix}.stage.{i}.{name}.hits"),
                self.stage_hits[i],
            );
            m.counter(
                format_args!("{prefix}.stage.{i}.{name}.misses"),
                self.stage_misses[i],
            );
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// The loaded program.
    #[must_use]
    pub fn program(&self) -> &RmtProgram {
        &self.program
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Hot-swaps the loaded program, re-lowering it through
    /// [`CompiledProgram::compile`]. Per-stage hit/miss counters are
    /// re-sized and reset — they are meaningless across programs whose
    /// stage lists differ (aggregate [`PipelineStats`] survive).
    ///
    /// # Panics
    /// Panics unless the pipeline is *drained* (no backlog, nothing
    /// in flight): messages half-way through the stages were matched
    /// against tables the new program may not have, so swapping under
    /// them would emit results no program ever produced. The
    /// management plane gates submission and waits for the drain
    /// before calling this (see `docs/CONTROL.md`).
    pub fn set_program(&mut self, program: RmtProgram) {
        assert!(
            self.input.is_empty() && self.in_flight.is_empty(),
            "program swap on an undrained pipeline"
        );
        let stages = program.stages();
        self.compiled = CompiledProgram::compile(&program);
        self.program = program;
        self.stage_hits = vec![0; stages];
        self.stage_misses = vec![0; stages];
    }

    /// Messages waiting to enter a pipeline. Sustained growth means the
    /// offered load exceeds `F × P`.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.input.len()
    }

    /// Messages currently inside pipeline stages.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.in_flight.len()
    }

    /// Queues a message for processing.
    pub fn submit(&mut self, msg: Message) {
        self.input.push_back(msg);
    }

    /// Advances one cycle: accepts up to `P` messages from the input
    /// queue (processing them functionally, completion scheduled
    /// `depth` cycles out) and returns the messages whose latency
    /// elapsed this cycle.
    ///
    /// Convenience wrapper over [`RmtPipeline::tick_into`]; hot loops
    /// reuse a caller-owned buffer instead.
    pub fn tick(&mut self, now: Cycle) -> Vec<PipelineOutput> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// Fast-forward hint (see [`sim_core::Driven::wakes`] for
    /// the contract): with a backlog the pipeline accepts every cycle
    /// (`now + 1`); with only in-flight messages nothing observable
    /// happens until the earliest one emerges; empty means quiescent.
    ///
    /// Idle ticks still mutate [`PipelineStats::idle_slots`] (and emit
    /// `rmt.backlog` counter samples when traced), so any driver that
    /// skips cycles must replay them via [`RmtPipeline::skip_idle`].
    #[must_use]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.input.is_empty() {
            Some(now.next())
        } else {
            // After `tick(now)` every event due at or before `now` has
            // drained, so the earliest pending completion is in the
            // future.
            self.in_flight.next_due().map(|due| due.max(now.next()))
        }
    }

    /// Replays the bookkeeping of the skipped idle cycles `[from, to)`
    /// exactly as [`RmtPipeline::tick`] would have performed it with an
    /// empty input queue: `P` idle slots per cycle, and one
    /// `rmt.backlog` counter sample per cycle when traced — byte-for-
    /// byte what a stepped run records.
    ///
    /// # Panics
    /// Debug-asserts the input queue is empty: skipping cycles in which
    /// the pipeline would have accepted work is a driver bug.
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(
            self.input.is_empty(),
            "skip_idle with a non-empty pipeline backlog"
        );
        debug_assert!(
            self.in_flight.next_due().is_none_or(|due| due >= to),
            "skip_idle across a pending pipeline completion"
        );
        let skipped = to.0.saturating_sub(from.0);
        self.stats.idle_slots += skipped * u64::from(self.config.parallel);
        if self.tracer.enabled() {
            for c in from.0..to.0 {
                self.tracer.counter(self.track, "rmt.backlog", Cycle(c), 0);
            }
        }
    }

    /// [`RmtPipeline::tick`] into a caller-owned buffer (cleared
    /// first), so the steady-state tick loop performs no allocation.
    pub fn tick_into(&mut self, now: Cycle, out: &mut Vec<PipelineOutput>) {
        out.clear();
        // Accept.
        for _ in 0..self.config.parallel {
            match self.input.pop_front() {
                Some(mut msg) => {
                    self.stats.accepted += 1;
                    let msg_id = msg.id.0;
                    // Split borrows: the observer mutates the stage
                    // counters while the compiled program runs over the
                    // pipeline-owned scratch.
                    let (compiled, scratch, hits, misses, tracer, track) = (
                        &self.compiled,
                        &mut self.scratch,
                        &mut self.stage_hits,
                        &mut self.stage_misses,
                        &self.tracer,
                        self.track,
                    );
                    let verdict =
                        compiled.process_scratch(&mut msg, scratch, &mut |stage, _name, hit| {
                            if hit {
                                hits[stage] += 1;
                            } else {
                                misses[stage] += 1;
                            }
                            if tracer.enabled() {
                                let name = if hit { "rmt.match" } else { "rmt.miss" };
                                tracer.emit(
                                    trace::Event::instant(track, name, now)
                                        .with_arg("stage", stage as u64)
                                        .with_arg("msg", msg_id),
                                );
                            }
                        });
                    match verdict {
                        Verdict::Drop => {
                            self.stats.dropped += 1;
                            // Dropped messages still occupied the slot —
                            // they are simply not emitted.
                        }
                        v => {
                            if v == Verdict::Recirculate {
                                self.stats.recirculated += 1;
                            }
                            self.in_flight.schedule(
                                now + Cycles(u64::from(self.config.depth)),
                                PipelineOutput { msg, verdict: v },
                            );
                        }
                    }
                }
                None => self.stats.idle_slots += 1,
            }
        }
        // Emit.
        self.in_flight.drain_due_into(now, out);
        self.stats.emitted += out.len() as u64;
        if self.tracer.enabled() {
            // Each emerging message spent exactly `depth` cycles inside
            // the stages: its span starts `depth` cycles ago.
            let depth = u64::from(self.config.depth);
            // Messages emerge no earlier than cycle `depth`, but guard
            // anyway (saturate) so an empty drain at cycle 0 is safe.
            let start = Cycle(now.0.saturating_sub(depth));
            for o in out.iter() {
                self.tracer.complete_arg(
                    self.track,
                    "rmt.pipeline",
                    start,
                    Cycles(depth),
                    "msg",
                    o.msg.id.0,
                );
            }
            self.tracer
                .counter(self.track, "rmt.backlog", now, self.input.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Primitive, SlackExpr};
    use crate::parse::ParseGraph;
    use crate::program::ProgramBuilder;
    use crate::table::{MatchKey, MatchKind, Table, TableEntry};
    use bytes::Bytes;
    use packet::chain::EngineId;
    use packet::headers::{
        build_udp_frame, ethertype, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr, UdpHeader,
    };
    use packet::message::{MessageId, MessageKind};
    use packet::phv::Field;
    use trace::MetricsRegistry;

    fn frame(port: u16) -> Bytes {
        build_udp_frame(
            EthernetHeader {
                dst: MacAddr::for_port(0),
                src: MacAddr::for_port(1),
                ethertype: ethertype::IPV4,
            },
            Ipv4Header {
                tos: 0,
                total_len: 0,
                ident: 0,
                ttl: 64,
                protocol: 0,
                src: Ipv4Addr::new(1, 0, 0, 1),
                dst: Ipv4Addr::new(1, 0, 0, 2),
            },
            UdpHeader {
                src_port: 9,
                dst_port: port,
                len: 0,
                checksum: 0,
            },
            b"x",
        )
    }

    fn msg(id: u64, port: u16) -> Message {
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(frame(port))
            .build()
    }

    fn route_all_program() -> RmtProgram {
        ProgramBuilder::new("route-all", ParseGraph::standard(6379))
            .stage(Table::new(
                "t",
                MatchKind::Exact(vec![Field::IpProto]),
                Action::named(
                    "to-1",
                    vec![Primitive::PushHop {
                        engine: EngineId(1),
                        slack: SlackExpr::Const(5),
                    }],
                ),
            ))
            .build()
    }

    fn dropping_program() -> RmtProgram {
        let mut t = Table::new(
            "t",
            MatchKind::Exact(vec![Field::L4DstPort]),
            Action::noop(),
        );
        t.insert(TableEntry {
            key: MatchKey::Exact(vec![23]),
            priority: 0,
            action: Action::drop_msg(),
        });
        ProgramBuilder::new("drop-telnet", ParseGraph::standard(6379))
            .stage(t)
            .build()
    }

    fn cfg(parallel: u32, depth: u32) -> PipelineConfig {
        PipelineConfig {
            parallel,
            depth,
            freq: Freq::mhz(500),
        }
    }

    #[test]
    fn latency_equals_depth() {
        let mut p = RmtPipeline::new(cfg(1, 10), route_all_program());
        p.submit(msg(1, 80));
        let mut now = Cycle(0);
        let mut emitted_at = None;
        for _ in 0..30 {
            let out = p.tick(now);
            if !out.is_empty() {
                emitted_at = Some(now);
                assert_eq!(out[0].msg.id, MessageId(1));
                assert_eq!(out[0].msg.chain.len(), 1);
                break;
            }
            now = now.next();
        }
        // Accepted at cycle 0, due at cycle 10.
        assert_eq!(emitted_at, Some(Cycle(10)));
    }

    #[test]
    fn throughput_is_p_per_cycle() {
        // 100 messages through P=2: drain takes ~50 cycles + depth.
        let mut p = RmtPipeline::new(cfg(2, 5), route_all_program());
        for i in 0..100 {
            p.submit(msg(i, 80));
        }
        let mut now = Cycle(0);
        let mut done = 0;
        let mut cycles = 0;
        while done < 100 {
            done += p.tick(now).len();
            now = now.next();
            cycles += 1;
            assert!(cycles < 200, "pipeline too slow");
        }
        assert_eq!(cycles, 55); // last accept at cycle 49, due at 54: ticks 0..=54
        assert_eq!(p.stats().accepted, 100);
        assert_eq!(p.stats().emitted, 100);
        assert_eq!(p.backlog(), 0);
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn single_pipeline_halves_throughput() {
        let run = |parallel: u32| {
            let mut p = RmtPipeline::new(cfg(parallel, 5), route_all_program());
            for i in 0..100 {
                p.submit(msg(i, 80));
            }
            let mut now = Cycle(0);
            let mut done = 0;
            let mut cycles = 0u64;
            while done < 100 {
                done += p.tick(now).len();
                now = now.next();
                cycles += 1;
            }
            cycles
        };
        let c1 = run(1);
        let c2 = run(2);
        assert!(c1 > c2);
        assert!((c1 as f64 / c2 as f64) > 1.7, "c1={c1} c2={c2}");
    }

    #[test]
    fn drops_never_emerge() {
        let mut p = RmtPipeline::new(cfg(2, 3), dropping_program());
        p.submit(msg(1, 23)); // dropped
        p.submit(msg(2, 80)); // forwarded
        let mut now = Cycle(0);
        let mut seen = Vec::new();
        for _ in 0..20 {
            for o in p.tick(now) {
                seen.push(o.msg.id.0);
            }
            now = now.next();
        }
        assert_eq!(seen, vec![2]);
        assert_eq!(p.stats().dropped, 1);
        assert_eq!(p.stats().emitted, 1);
    }

    #[test]
    fn idle_slots_counted() {
        let mut p = RmtPipeline::new(cfg(2, 3), route_all_program());
        p.tick(Cycle(0)); // nothing queued: 2 idle slots
        assert_eq!(p.stats().idle_slots, 2);
        p.submit(msg(1, 80));
        p.tick(Cycle(1)); // 1 used, 1 idle
        assert_eq!(p.stats().idle_slots, 3);
    }

    #[test]
    fn tracer_records_stage_outcomes_and_spans() {
        use trace::EventKind;
        let tracer = Tracer::ring(256);
        let mut p = RmtPipeline::new(cfg(1, 4), dropping_program());
        p.attach_tracer(&tracer);
        p.submit(msg(1, 23)); // matches the drop entry: a stage hit
        p.submit(msg(2, 80)); // default action: a stage miss
        let mut now = Cycle(0);
        for _ in 0..10 {
            let _ = p.tick(now);
            now = now.next();
        }
        let events = tracer.ring_snapshot().unwrap();
        assert!(events.iter().any(|e| e.name == "rmt.match"));
        assert!(events.iter().any(|e| e.name == "rmt.miss"));
        let span = events
            .iter()
            .find(|e| e.name == "rmt.pipeline")
            .expect("traversal span");
        assert_eq!(span.kind, EventKind::Complete { dur: 4 });
        assert_eq!(span.args[0], Some(("msg", 2)), "dropped msg never emerges");

        assert_eq!(p.stage_hits(), &[1]);
        assert_eq!(p.stage_misses(), &[1]);
        let mut m = MetricsRegistry::new();
        p.export_metrics(&mut m, "rmt");
        assert_eq!(m.counter("rmt.accepted"), Some(2));
        assert_eq!(m.counter("rmt.stage.0.t.hits"), Some(1));
        assert_eq!(m.counter("rmt.stage.0.t.misses"), Some(1));
    }

    #[test]
    fn stage_counters_work_untraced() {
        let mut p = RmtPipeline::new(cfg(2, 3), dropping_program());
        for i in 0..4 {
            p.submit(msg(i, 80));
        }
        let mut now = Cycle(0);
        for _ in 0..10 {
            let _ = p.tick(now);
            now = now.next();
        }
        assert_eq!(p.stage_misses(), &[4], "default action is a miss");
        assert_eq!(p.stage_hits(), &[0]);
    }

    #[test]
    fn peak_pps_matches_paper() {
        assert_eq!(PipelineConfig::panic_default().peak_pps(), 1_000_000_000);
        assert_eq!(cfg(4, 18).peak_pps(), 2_000_000_000);
    }

    #[test]
    fn config_and_program_accessors() {
        let p = RmtPipeline::new(PipelineConfig::panic_default(), route_all_program());
        assert_eq!(p.config().parallel, 2);
        assert_eq!(p.program().name(), "route-all");
    }

    #[test]
    #[should_panic(expected = "zero pipelines")]
    fn zero_parallel_rejected() {
        let _ = RmtPipeline::new(cfg(0, 3), route_all_program());
    }

    #[test]
    fn set_program_swaps_behavior_and_resets_stage_counters() {
        let mut p = RmtPipeline::new(cfg(2, 3), dropping_program());
        p.submit(msg(1, 23)); // dropped by the telnet entry
        let mut now = Cycle(0);
        for _ in 0..10 {
            let _ = p.tick(now);
            now = now.next();
        }
        assert_eq!(p.stats().dropped, 1);
        assert_eq!(p.stage_hits(), &[1]);
        // Drained: swap in the routing program.
        p.set_program(route_all_program());
        assert_eq!(p.program().name(), "route-all");
        assert_eq!(p.stage_hits(), &[0], "stage counters reset on swap");
        p.submit(msg(2, 23)); // the new program routes instead of dropping
        let mut routed = false;
        for _ in 0..10 {
            for o in p.tick(now) {
                assert_eq!(o.msg.chain.len(), 1);
                routed = true;
            }
            now = now.next();
        }
        assert!(routed);
        assert_eq!(p.stats().dropped, 1, "aggregate stats survive the swap");
        assert_eq!(p.stats().accepted, 2);
    }

    #[test]
    #[should_panic(expected = "undrained pipeline")]
    fn set_program_rejects_undrained_swap() {
        let mut p = RmtPipeline::new(cfg(1, 5), route_all_program());
        p.submit(msg(1, 80));
        let _ = p.tick(Cycle(0)); // in flight for 5 cycles
        p.set_program(dropping_program());
    }

    #[test]
    fn next_activity_hints() {
        let mut p = RmtPipeline::new(cfg(2, 5), route_all_program());
        // Empty pipeline: quiescent.
        assert_eq!(p.next_activity(Cycle(0)), None);
        // Backlogged: active next cycle.
        p.submit(msg(1, 80));
        assert_eq!(p.next_activity(Cycle(0)), Some(Cycle(1)));
        // Accepted at cycle 0, due at cycle 5: the hint is the
        // completion cycle once the backlog drains.
        let _ = p.tick(Cycle(0));
        assert_eq!(p.next_activity(Cycle(0)), Some(Cycle(5)));
        // Drain at cycle 5: quiescent again.
        for c in 1..=5 {
            let _ = p.tick(Cycle(c));
        }
        assert_eq!(p.next_activity(Cycle(5)), None);
    }

    #[test]
    fn skip_idle_matches_stepped_idle_ticks() {
        // Stepped: tick through 10 empty cycles.
        let mut stepped = RmtPipeline::new(cfg(2, 5), route_all_program());
        for c in 0..10 {
            let _ = stepped.tick(Cycle(c));
        }
        // Fast-forwarded: tick once, then replay cycles 1..10.
        let mut ff = RmtPipeline::new(cfg(2, 5), route_all_program());
        let _ = ff.tick(Cycle(0));
        ff.skip_idle(Cycle(1), Cycle(10));
        assert_eq!(ff.stats().idle_slots, stepped.stats().idle_slots);
        assert_eq!(ff.stats().idle_slots, 20);
    }

    #[test]
    fn skip_idle_replays_traced_backlog_counters() {
        use trace::EventKind;
        let run = |skip: bool| {
            let tracer = Tracer::ring(256);
            let mut p = RmtPipeline::new(cfg(1, 3), route_all_program());
            p.attach_tracer(&tracer);
            if skip {
                let _ = p.tick(Cycle(0));
                p.skip_idle(Cycle(1), Cycle(6));
            } else {
                for c in 0..6 {
                    let _ = p.tick(Cycle(c));
                }
            }
            tracer
                .ring_snapshot()
                .unwrap()
                .iter()
                .filter(|e| e.name == "rmt.backlog")
                .map(|e| (e.ts, e.kind))
                .collect::<Vec<_>>()
        };
        let stepped = run(false);
        let skipped = run(true);
        assert_eq!(stepped, skipped);
        assert!(matches!(stepped[0].1, EventKind::Counter { value: 0 }));
    }
}
