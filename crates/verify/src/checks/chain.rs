//! Chain & placement checks (`PV0xx`).
//!
//! The offload chain is the paper's keystone mechanism (§3.1.2): the
//! RMT pipeline writes a list of engine hops into a lightweight header
//! and the message then rides the NoC engine-to-engine. Three things
//! can go statically wrong with that plan and each has a code here:
//! the chain can name engines that don't exist (PV001), it can be
//! longer than the header can carry or than the mesh can sustain at
//! line rate — Table 3's central result (PV002), and its slack budgets
//! can be infeasible against the engines' own service times (PV003).
//! PV004 covers placement: more engines than tiles, out-of-bounds or
//! duplicate coordinates, duplicate addresses.

use std::collections::HashSet;

use noc::analytic;
use packet::chain::ChainHeader;
use packet::EngineId;
use rmt::action::{Primitive, SlackExpr};
use rmt::table::Table;

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::spec::NicSpec;

/// Every action reachable in `table`: the default plus each entry's.
fn actions(table: &Table) -> impl Iterator<Item = &rmt::Action> {
    std::iter::once(table.default_action()).chain(table.entries().iter().map(|e| &e.action))
}

/// Worst-case hops one action contributes: `PushHop` adds one,
/// `ClearChain` resets everything pushed so far (within the action *and*
/// by earlier stages — but for a per-stage maximum the reset-to-zero
/// within the action is the sound local summary).
fn action_hops(action: &rmt::Action) -> usize {
    let mut hops = 0usize;
    for p in action.primitives() {
        match p {
            Primitive::PushHop { .. } => hops += 1,
            Primitive::ClearChain => hops = 0,
            _ => {}
        }
    }
    hops
}

/// Runs the `PV0xx` family against `spec`.
#[must_use]
pub fn check_chain(spec: &NicSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_placement(spec, &mut out);
    if let Some(program) = &spec.program {
        let known: HashSet<EngineId> = spec.engines.iter().map(|e| e.id).collect();
        check_hop_targets(spec, program, &known, &mut out);
        check_chain_length(spec, program, &mut out);
        check_slack_budgets(spec, program, &mut out);
    }
    out
}

/// PV004: the engine set must physically fit the mesh.
fn check_placement(spec: &NicSpec, out: &mut Vec<Diagnostic>) {
    let tiles = spec.topology.nodes();
    if spec.engines.len() > tiles {
        out.push(Diagnostic::new(
            Code::PV004,
            Severity::Error,
            Span::at("chain", "placement"),
            format!(
                "more engines ({}) than tiles ({}) on the {} mesh",
                spec.engines.len(),
                tiles,
                spec.topology
            ),
        ));
    }
    let mut seen_ids: HashSet<EngineId> = HashSet::new();
    let mut seen_coords = HashSet::new();
    for e in &spec.engines {
        if !seen_ids.insert(e.id) {
            out.push(Diagnostic::new(
                Code::PV004,
                Severity::Error,
                Span::at("chain", e.name.clone()),
                format!("duplicate engine address {}", e.id),
            ));
        }
        if let Some(c) = e.coord {
            if !spec.topology.contains(c) {
                out.push(Diagnostic::new(
                    Code::PV004,
                    Severity::Error,
                    Span::at("chain", e.name.clone()),
                    format!("placed at {c} outside the {} mesh", spec.topology),
                ));
            } else if !seen_coords.insert(c) {
                out.push(Diagnostic::new(
                    Code::PV004,
                    Severity::Error,
                    Span::at("chain", e.name.clone()),
                    format!("tile {c} assigned to two engines"),
                ));
            }
        }
    }
}

/// PV001: every `PushHop` must target an engine that exists.
fn check_hop_targets(
    _spec: &NicSpec,
    program: &rmt::RmtProgram,
    known: &HashSet<EngineId>,
    out: &mut Vec<Diagnostic>,
) {
    for table in program.tables() {
        for action in actions(table) {
            for p in action.primitives() {
                if let Primitive::PushHop { engine, .. } = p {
                    // Remote-encoded hops name engines on *other* fabric
                    // members; only the fabric-level PV701/PV704 checks
                    // can resolve them.
                    if engine.is_remote() {
                        continue;
                    }
                    if !known.contains(engine) {
                        out.push(Diagnostic::new(
                            Code::PV001,
                            Severity::Error,
                            Span::at("chain", format!("{}/{}", table.name(), action.name())),
                            format!(
                                "chain hop targets {engine}, which is not an engine on this NIC"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// PV002: worst-case static chain length vs. the header limit (Error)
/// and vs. the analytic sustainable length from `noc::analytic` —
/// the Table 3 model (Warn).
fn check_chain_length(spec: &NicSpec, program: &rmt::RmtProgram, out: &mut Vec<Diagnostic>) {
    // Sum of per-stage maxima: the longest chain any single pipeline
    // pass can emit (an over-approximation — the maximizing entries of
    // different stages may be mutually exclusive, but static analysis
    // cannot know that).
    let worst: usize = program
        .tables()
        .iter()
        .map(|t| actions(t).map(action_hops).max().unwrap_or(0))
        .sum();
    let recirculates = program.tables().iter().any(|t| {
        actions(t).any(|a| {
            a.primitives()
                .iter()
                .any(|p| matches!(p, Primitive::Recirculate))
        })
    });

    // What the header must hold: the pass's own hops plus, for a
    // recirculating program, the portal hop the NIC appends on
    // `Verdict::Recirculate` (`step_pipeline`'s `chain.extend`). Each
    // hop is also one traversal of the mesh.
    let traversals = worst + usize::from(recirculates);
    if traversals > ChainHeader::MAX_HOPS {
        let portal = if recirculates {
            " plus the recirculation portal hop"
        } else {
            ""
        };
        out.push(Diagnostic::new(
            Code::PV002,
            Severity::Error,
            Span::at("chain", program.name().to_string()),
            format!(
                "worst-case chain of {worst} hops{portal} exceeds the {}-hop header limit; \
                 building it would panic the pipeline",
                ChainHeader::MAX_HOPS
            ),
        ));
        return;
    }

    let sustainable = analytic::chain_length(
        spec.topology,
        spec.width_bits,
        spec.freq,
        spec.line_rate,
        spec.ports,
    );
    if traversals as f64 > sustainable {
        out.push(Diagnostic::new(
            Code::PV002,
            Severity::Warn,
            Span::at("chain", program.name().to_string()),
            format!(
                "worst-case chain of {traversals} traversals exceeds the sustainable \
                 average of {sustainable:.2} for this mesh at {} x{} (Table 3 model); \
                 sustained line-rate traffic down this path will congest the NoC",
                spec.line_rate, spec.ports
            ),
        ));
    }
}

/// PV003: a statically-known slack budget smaller than the target
/// engine's own service time can never be met — the message is late
/// before the engine even starts.
fn check_slack_budgets(spec: &NicSpec, program: &rmt::RmtProgram, out: &mut Vec<Diagnostic>) {
    for table in program.tables() {
        for action in actions(table) {
            for p in action.primitives() {
                let Primitive::PushHop { engine, slack } = p else {
                    continue;
                };
                let Some(target) = spec.engine(*engine) else {
                    continue; // PV001 already fired.
                };
                let service = target.service_cycles.0;
                if service == 0 {
                    continue; // Unknown / data-dependent service time.
                }
                // The statically-known finite budgets this expression
                // can evaluate to.
                let budgets: &[u32] = match slack {
                    SlackExpr::Const(c) => &[*c],
                    SlackExpr::ByPriority { latency, normal } => &[*latency, *normal],
                    SlackExpr::Bulk => &[],
                };
                for &b in budgets {
                    if u64::from(b) < service {
                        out.push(Diagnostic::new(
                            Code::PV003,
                            Severity::Warn,
                            Span::at("chain", format!("{}/{}", table.name(), action.name())),
                            format!(
                                "slack budget {b} cycles at {} ({}) is below its {} cycle \
                                 service time; the deadline is unmeetable by construction",
                                target.name, engine, service
                            ),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EngineSpec;
    use noc::{Coord, Topology};
    use packet::EngineClass;
    use rmt::parse::Layer;
    use rmt::table::MatchKind;
    use rmt::{Action, ParseGraph, ProgramBuilder, RmtProgram};
    use sim_core::Cycles;

    fn push(engine: u16, slack: SlackExpr) -> Primitive {
        Primitive::PushHop {
            engine: EngineId(engine),
            slack,
        }
    }

    fn one_stage(action: Action) -> RmtProgram {
        ProgramBuilder::new("t", ParseGraph::starting_at(Layer::Ethernet))
            .stage(Table::new(
                "s0",
                MatchKind::Exact(vec![packet::phv::Field::EthType]),
                action,
            ))
            .build()
    }

    fn spec_with(program: RmtProgram) -> NicSpec {
        let mut s = NicSpec::new(Topology::mesh(4, 4));
        let e0 = EngineSpec::new(EngineId(0), "portal", EngineClass::Rmt);
        let mut e1 = EngineSpec::new(EngineId(1), "crypto", EngineClass::Asic);
        e1.service_cycles = Cycles(400);
        s.engines.push(e0);
        s.engines.push(e1);
        s.program = Some(program);
        s
    }

    #[test]
    fn clean_program_passes() {
        let spec = spec_with(one_stage(Action::named(
            "ok",
            vec![push(1, SlackExpr::Const(1000))],
        )));
        assert!(check_chain(&spec).is_empty());
    }

    #[test]
    fn pv001_unknown_hop_target() {
        let spec = spec_with(one_stage(Action::named(
            "bad",
            vec![push(77, SlackExpr::Bulk)],
        )));
        let diags = check_chain(&spec);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PV001 && d.severity == Severity::Error));
        assert!(diags[0].message.contains("E77"), "{}", diags[0].message);
    }

    #[test]
    fn pv002_error_past_header_limit() {
        // 17 pushes in one action: more than ChainHeader::MAX_HOPS.
        let prims: Vec<Primitive> = (0..17).map(|_| push(1, SlackExpr::Bulk)).collect();
        let spec = spec_with(one_stage(Action::named("too-long", prims)));
        let diags = check_chain(&spec);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PV002 && d.severity == Severity::Error));
    }

    #[test]
    fn pv002_error_when_recirculation_needs_a_seventeenth_hop() {
        // 16 pushes fill the header exactly; `Recirculate` makes the
        // NIC append a portal hop to that chain, which would panic
        // `step_pipeline` mid-run. Without the recirculation the same
        // 16 hops fit (no Error).
        let pushes = || (0..16).map(|_| push(1, SlackExpr::Bulk));
        let is_error = |prims: Vec<Primitive>| {
            check_chain(&spec_with(one_stage(Action::named("full", prims))))
                .iter()
                .any(|d| d.code == Code::PV002 && d.severity == Severity::Error)
        };
        assert!(!is_error(pushes().collect()));
        assert!(is_error(pushes().chain([Primitive::Recirculate]).collect()));
    }

    #[test]
    fn pv002_warn_past_sustainable_length() {
        // 10 hops fit the header but far exceed what a 2x2 mesh with
        // 64-bit channels can sustain against 100 Gbps.
        let prims: Vec<Primitive> = (0..10).map(|_| push(1, SlackExpr::Bulk)).collect();
        let mut spec = spec_with(one_stage(Action::named("heavy", prims)));
        spec.topology = Topology::mesh(2, 2);
        let diags = check_chain(&spec);
        let d = diags.iter().find(|d| d.code == Code::PV002).expect("PV002");
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("sustainable"), "{}", d.message);
    }

    #[test]
    fn pv002_clear_chain_resets_count() {
        // 17 pushes but a ClearChain in the middle: worst case is what
        // survives after the last clear — 3 hops, no finding.
        let mut prims: Vec<Primitive> = (0..14).map(|_| push(1, SlackExpr::Bulk)).collect();
        prims.push(Primitive::ClearChain);
        prims.extend((0..3).map(|_| push(1, SlackExpr::Bulk)));
        let spec = spec_with(one_stage(Action::named("cleared", prims)));
        // No Error: the surviving chain fits the header. (The analytic
        // sustainable-length Warn may still fire — 3 hops on a 4x4 mesh
        // against 100 Gbps exceeds Table 3's 1.12 — and that's correct.)
        assert!(!check_chain(&spec)
            .iter()
            .any(|d| d.code == Code::PV002 && d.severity == Severity::Error));
    }

    #[test]
    fn pv003_slack_below_service_time() {
        // crypto (E1) takes 400 cycles; a 50-cycle budget cannot work.
        let spec = spec_with(one_stage(Action::named(
            "tight",
            vec![push(1, SlackExpr::Const(50))],
        )));
        let diags = check_chain(&spec);
        let d = diags.iter().find(|d| d.code == Code::PV003).expect("PV003");
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("400"), "{}", d.message);
    }

    #[test]
    fn pv003_by_priority_checks_both_arms() {
        let spec = spec_with(one_stage(Action::named(
            "ladder",
            vec![push(
                1,
                SlackExpr::ByPriority {
                    latency: 50,
                    normal: 10_000,
                },
            )],
        )));
        let diags: Vec<_> = check_chain(&spec)
            .into_iter()
            .filter(|d| d.code == Code::PV003)
            .collect();
        assert_eq!(diags.len(), 1); // only the latency arm is infeasible
    }

    #[test]
    fn pv004_more_engines_than_tiles() {
        let mut spec = spec_with(one_stage(Action::noop()));
        spec.topology = Topology::mesh(1, 2); // 2 tiles, 2 engines: fine
        assert!(!check_chain(&spec).iter().any(|d| d.code == Code::PV004));
        spec.engines
            .push(EngineSpec::new(EngineId(2), "extra", EngineClass::Core));
        let diags = check_chain(&spec);
        let d = diags.iter().find(|d| d.code == Code::PV004).expect("PV004");
        assert!(
            d.message.contains("more engines (3) than tiles (2)"),
            "{}",
            d.message
        );
    }

    #[test]
    fn pv004_out_of_bounds_and_duplicate_coords() {
        let mut spec = spec_with(one_stage(Action::noop()));
        spec.engines[0].coord = Some(Coord { x: 9, y: 9 });
        spec.engines[1].coord = Some(Coord { x: 0, y: 0 });
        spec.engines
            .push(EngineSpec::new(EngineId(2), "clash", EngineClass::Core));
        spec.engines[2].coord = Some(Coord { x: 0, y: 0 });
        let diags = check_chain(&spec);
        assert_eq!(diags.iter().filter(|d| d.code == Code::PV004).count(), 2);
    }

    #[test]
    fn pv004_duplicate_engine_ids() {
        let mut spec = spec_with(one_stage(Action::noop()));
        spec.engines
            .push(EngineSpec::new(EngineId(1), "dup", EngineClass::Core));
        let diags = check_chain(&spec);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PV004 && d.message.contains("duplicate")));
    }
}
