//! RMT program checks (`PV2xx`).
//!
//! These are the compiler-style lints a P4 toolchain would run before
//! loading a program into switch hardware, applied to the NIC's
//! heavyweight pipeline (§2.3.3/§4.1): the parse graph must terminate
//! (PV201), match keys must be fields something actually writes —
//! a parser layer on some reachable path, standard metadata, or an
//! earlier stage's action (PV202), and the program must physically fit
//! the pipeline's stages and table SRAM (PV203). PV204 is the
//! placement-side requirement that a NIC modeling this paper has at
//! least one RMT portal tile, since every message enters through one
//! (Figure 3).

use std::collections::HashSet;

use packet::phv::Field;
use rmt::action::Primitive;
use rmt::parse::Layer;
use rmt::table::{MatchKey, MatchKind, Table};
use rmt::RmtProgram;

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::spec::{EngineSpec, NicSpec};

/// Runs the `PV2xx` family against `spec`.
#[must_use]
pub fn check_rmt(spec: &NicSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_portals(spec, &mut out);
    if let Some(program) = &spec.program {
        check_parse_graph(program, &mut out);
        check_def_use(program, &mut out);
        check_capacity(spec, program, &mut out);
    }
    out
}

/// PV204: every message enters through the heavyweight pipeline, so a
/// PANIC NIC without a portal tile cannot carry traffic at all.
fn check_portals(spec: &NicSpec, out: &mut Vec<Diagnostic>) {
    if spec.engines.is_empty() {
        // An empty spec is a partial configuration, not a broken one;
        // the builder integration always populates engines.
        return;
    }
    if !spec.engines.iter().any(EngineSpec::is_portal) {
        out.push(Diagnostic::new(
            Code::PV204,
            Severity::Error,
            Span::at("rmt", "portals"),
            "NIC needs at least one RMT portal tile: every message takes its \
             first pipeline pass through a portal, so none of these engines \
             is reachable"
                .to_string(),
        ));
    }
}

/// Layers reachable from the start layer (inclusive).
fn reachable_layers(program: &RmtProgram) -> HashSet<Layer> {
    let parser = program.parser();
    let mut seen: HashSet<Layer> = HashSet::new();
    let mut frontier = vec![parser.start()];
    while let Some(layer) = frontier.pop() {
        if !seen.insert(layer) {
            continue;
        }
        for (from, _, next) in parser.edges() {
            if from == layer && !seen.contains(&next) {
                frontier.push(next);
            }
        }
    }
    seen
}

/// PV201: the parse graph must be a DAG. The walk in
/// [`rmt::ParseGraph::parse`] consumes bytes per layer so it always
/// terminates, but a cyclic graph re-extracts a layer over later bytes
/// and silently overwrites earlier PHV fields — never what the program
/// author meant.
fn check_parse_graph(program: &RmtProgram, out: &mut Vec<Diagnostic>) {
    let parser = program.parser();
    let edges: Vec<(Layer, Layer)> = parser.edges().map(|(f, _, n)| (f, n)).collect();
    // Tiny graph (≤6 layers): DFS from each layer with an on-stack set.
    fn dfs(
        layer: Layer,
        edges: &[(Layer, Layer)],
        on_stack: &mut Vec<Layer>,
        done: &mut HashSet<Layer>,
    ) -> Option<Layer> {
        if done.contains(&layer) {
            return None;
        }
        if on_stack.contains(&layer) {
            return Some(layer);
        }
        on_stack.push(layer);
        for &(f, n) in edges {
            if f == layer {
                if let Some(w) = dfs(n, edges, on_stack, done) {
                    return Some(w);
                }
            }
        }
        on_stack.pop();
        done.insert(layer);
        None
    }
    let mut done = HashSet::new();
    if let Some(witness) = dfs(parser.start(), &edges, &mut Vec::new(), &mut done) {
        out.push(Diagnostic::new(
            Code::PV201,
            Severity::Error,
            Span::at("rmt", format!("parser/{witness:?}")),
            format!(
                "parse graph of program '{}' has a cycle through {witness:?}: \
                 the layer would be re-extracted over payload bytes, \
                 overwriting its own PHV fields",
                program.name()
            ),
        ));
    }
}

/// The fields a table's match key *reads*. Ternary fields only count
/// when some entry gives them a non-zero mask — an all-zero mask is the
/// explicit don't-care idiom for optional headers.
fn key_reads(table: &Table) -> Vec<Field> {
    match table.kind() {
        MatchKind::Exact(fields) => fields.clone(),
        MatchKind::Lpm(field) => vec![*field],
        MatchKind::Ternary(fields) => fields
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                table.entries().iter().any(|e| {
                    matches!(&e.key, MatchKey::Ternary(pairs) if pairs.get(i).is_some_and(|&(_, m)| m != 0))
                })
            })
            .map(|(_, &f)| f)
            .collect(),
    }
}

/// Fields a table's actions may write, becoming defined for later stages.
fn action_writes(table: &Table, defined: &mut HashSet<Field>) {
    let all_actions =
        std::iter::once(table.default_action()).chain(table.entries().iter().map(|e| &e.action));
    for action in all_actions {
        for p in action.primitives() {
            match p {
                Primitive::SetField(f, _) | Primitive::AddField(f, _) => {
                    defined.insert(*f);
                }
                Primitive::CopyField { to, .. } => {
                    defined.insert(*to);
                }
                Primitive::SetPriority(_) => {
                    defined.insert(Field::MetaPriority);
                }
                _ => {}
            }
        }
    }
}

/// PV202: def-use over the PHV. Defined fields start as the standard
/// metadata plus everything any *reachable* parser layer extracts;
/// each stage's match key must read only defined fields; each stage's
/// actions then extend the defined set.
fn check_def_use(program: &RmtProgram, out: &mut Vec<Diagnostic>) {
    let mut defined: HashSet<Field> = [Field::MetaIngress, Field::MetaPasses, Field::MetaPriority]
        .into_iter()
        .collect();
    for layer in reachable_layers(program) {
        defined.extend(layer.fields().iter().copied());
    }
    for table in program.tables() {
        for field in key_reads(table) {
            if !defined.contains(&field) {
                out.push(Diagnostic::new(
                    Code::PV202,
                    Severity::Warn,
                    Span::at("rmt", format!("{}/{field:?}", table.name())),
                    format!(
                        "table '{}' matches on {field:?}, but no reachable parser \
                         layer or earlier stage writes it: these entries can \
                         never hit",
                        table.name()
                    ),
                ));
            }
        }
        action_writes(table, &mut defined);
    }
}

/// Per-table entry capacity of an RMT match stage's SRAM.
const TABLE_ENTRY_CAPACITY: usize = 1024;

/// PV203: the program must fit the pipeline. Stage budget is
/// `depth − 2` (one cycle each for parser and deparser); entry counts
/// are bounded per stage by the table SRAM.
fn check_capacity(spec: &NicSpec, program: &RmtProgram, out: &mut Vec<Diagnostic>) {
    let stage_budget = spec.pipeline.depth.saturating_sub(2) as usize;
    if program.stages() > stage_budget {
        out.push(Diagnostic::new(
            Code::PV203,
            Severity::Error,
            Span::at("rmt", program.name().to_string()),
            format!(
                "program has {} stages but the pipeline (depth {}) fits only \
                 {stage_budget} match+action stages after parser and deparser",
                program.stages(),
                spec.pipeline.depth
            ),
        ));
    }
    for table in program.tables() {
        if table.len() > TABLE_ENTRY_CAPACITY {
            out.push(Diagnostic::new(
                Code::PV203,
                Severity::Error,
                Span::at("rmt", table.name().to_string()),
                format!(
                    "table '{}' holds {} entries but each stage's SRAM fits {}",
                    table.name(),
                    table.len(),
                    TABLE_ENTRY_CAPACITY
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::Topology;
    use packet::headers::{ethertype, ipproto};
    use packet::{EngineClass, EngineId};
    use rmt::table::TableEntry;
    use rmt::{Action, ParseGraph, ProgramBuilder};

    fn exact_table(name: &str, fields: Vec<Field>) -> Table {
        Table::new(name, MatchKind::Exact(fields), Action::noop())
    }

    fn spec_with(program: RmtProgram) -> NicSpec {
        let mut s = NicSpec::new(Topology::mesh(4, 4));
        s.engines
            .push(EngineSpec::new(EngineId(0), "portal", EngineClass::Rmt));
        s.program = Some(program);
        s
    }

    fn standard_program(tables: Vec<Table>) -> RmtProgram {
        let mut b = ProgramBuilder::new("p", ParseGraph::standard(6379));
        for t in tables {
            b = b.stage(t);
        }
        b.build()
    }

    #[test]
    fn clean_program_passes() {
        let p = standard_program(vec![exact_table("route", vec![Field::IpDst])]);
        assert!(check_rmt(&spec_with(p)).is_empty());
    }

    #[test]
    fn pv201_cyclic_parse_graph() {
        // Ethernet -> IPv4 -> (proto 143) -> Ethernet again.
        let parser = ParseGraph::starting_at(Layer::Ethernet)
            .with_edge(Layer::Ethernet, u64::from(ethertype::IPV4), Layer::Ipv4)
            .with_edge(Layer::Ipv4, 143, Layer::Ethernet);
        let p = ProgramBuilder::new("loopy", parser)
            .stage(exact_table("t", vec![Field::EthType]))
            .build();
        let diags = check_rmt(&spec_with(p));
        let d = diags.iter().find(|d| d.code == Code::PV201).expect("PV201");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn pv202_read_of_unreachable_layer_field() {
        // Parser stops at Ethernet, but the table matches on a KVS
        // field only the (unreachable) KVS layer would write.
        let p = ProgramBuilder::new("p", ParseGraph::starting_at(Layer::Ethernet))
            .stage(exact_table("kvs", vec![Field::KvsKey]))
            .build();
        let diags = check_rmt(&spec_with(p));
        let d = diags.iter().find(|d| d.code == Code::PV202).expect("PV202");
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("KvsKey"), "{}", d.message);
    }

    #[test]
    fn pv202_earlier_stage_write_defines_field() {
        // Stage 1 writes MetaRxQueue; stage 2 may then match on it.
        let classify = Table::new(
            "classify",
            MatchKind::Exact(vec![Field::EthType]),
            Action::named("q", vec![Primitive::SetField(Field::MetaRxQueue, 3)]),
        );
        let steer = exact_table("steer", vec![Field::MetaRxQueue]);
        let p = standard_program(vec![classify, steer]);
        assert!(!check_rmt(&spec_with(p))
            .iter()
            .any(|d| d.code == Code::PV202));

        // Reversed order: the read happens before the write.
        let classify = Table::new(
            "classify",
            MatchKind::Exact(vec![Field::EthType]),
            Action::named("q", vec![Primitive::SetField(Field::MetaRxQueue, 3)]),
        );
        let steer = exact_table("steer", vec![Field::MetaRxQueue]);
        let p = standard_program(vec![steer, classify]);
        assert!(check_rmt(&spec_with(p))
            .iter()
            .any(|d| d.code == Code::PV202));
    }

    #[test]
    fn pv202_ternary_zero_mask_is_dont_care() {
        // A ternary field whose every entry masks it to 0 is not a read.
        let mut t = Table::new(
            "acl",
            MatchKind::Ternary(vec![Field::KvsKey, Field::IpSrc]),
            Action::noop(),
        );
        t.insert(TableEntry {
            key: MatchKey::Ternary(vec![(0, 0), (10, 0xff)]),
            priority: 0,
            action: Action::noop(),
        });
        let p = ProgramBuilder::new("p", ParseGraph::standard(6379))
            .stage(t)
            .build();
        assert!(!check_rmt(&spec_with(p))
            .iter()
            .any(|d| d.code == Code::PV202));

        // Give KvsKey a real mask and the lint fires (KVS is reachable
        // in the standard graph... so use a TCP-only parser instead).
        let parser = ParseGraph::starting_at(Layer::Ethernet)
            .with_edge(Layer::Ethernet, u64::from(ethertype::IPV4), Layer::Ipv4)
            .with_edge(Layer::Ipv4, u64::from(ipproto::TCP), Layer::Tcp);
        let mut t = Table::new(
            "acl",
            MatchKind::Ternary(vec![Field::KvsKey, Field::IpSrc]),
            Action::noop(),
        );
        t.insert(TableEntry {
            key: MatchKey::Ternary(vec![(7, 0xffff), (10, 0xff)]),
            priority: 0,
            action: Action::noop(),
        });
        let p = ProgramBuilder::new("p", parser).stage(t).build();
        assert!(check_rmt(&spec_with(p))
            .iter()
            .any(|d| d.code == Code::PV202));
    }

    #[test]
    fn pv203_too_many_stages() {
        let tables: Vec<Table> = (0..20)
            .map(|i| exact_table(&format!("t{i}"), vec![Field::EthType]))
            .collect();
        let p = standard_program(tables);
        let mut spec = spec_with(p);
        spec.pipeline.depth = 18; // budget: 16 stages
        let diags = check_rmt(&spec);
        let d = diags.iter().find(|d| d.code == Code::PV203).expect("PV203");
        assert!(d.message.contains("20 stages"), "{}", d.message);
    }

    #[test]
    fn pv203_table_entry_overflow() {
        let mut t = exact_table("big", vec![Field::L4DstPort]);
        for port in 0..1025u64 {
            t.insert(TableEntry {
                key: MatchKey::Exact(vec![port]),
                priority: 0,
                action: Action::noop(),
            });
        }
        let spec = spec_with(standard_program(vec![t]));
        assert!(check_rmt(&spec).iter().any(|d| d.code == Code::PV203
            && d.severity == Severity::Error
            && d.message.contains("1025 entries")));
    }

    #[test]
    fn pv204_no_portal() {
        let p = standard_program(vec![exact_table("t", vec![Field::EthType])]);
        let mut spec = spec_with(p);
        spec.engines[0].class = EngineClass::Asic;
        let diags = check_rmt(&spec);
        let d = diags.iter().find(|d| d.code == Code::PV204).expect("PV204");
        assert!(
            d.message.contains("at least one RMT portal"),
            "{}",
            d.message
        );
    }
}
