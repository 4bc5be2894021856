//! Per-spec compilation: lowering a program into monomorphized dispatch.
//!
//! [`RmtProgram::process_scratch`](crate::program::RmtProgram::process_scratch)
//! is an *interpreter*: every message walks the parse graph by scanning
//! the global transition list, and every table lookup re-destructures
//! the `MatchKind`/`MatchKey` enums per entry, recomputing prefix
//! shifts and priority tie-breaks from scratch. Real RMT hardware does
//! none of that — the compiler lowers the P4 program into TCAM images
//! and parser state tables once, and the per-packet path just indexes
//! them. [`CompiledProgram`] is that lowering:
//!
//! * the parse graph becomes dense per-layer transition tables (sorted
//!   by selector value, binary-searched), so the walk never scans
//!   edges belonging to other layers;
//! * exact tables become a sorted key matrix probed by binary search;
//! * LPM tables are pre-sorted by descending prefix length with the
//!   shift precomputed, so the first row that matches *is* the longest
//!   prefix;
//! * ternary tables are pre-sorted by `(priority desc, insertion asc)`
//!   with `value & mask` precomputed, so the first matching row wins
//!   outright — no best-so-far tracking.
//!
//! Compilation happens once, when the NIC is built
//! (`RmtPipeline::new`, reached from `NicBuilder::build()`); the
//! interpreter stays as the executable specification, and the tests
//! below diff the two over every table kind and tie-break rule.

use packet::message::Message;
use packet::phv::{Field, Phv};

use crate::action::{Action, Verdict};
use crate::parse::{extract_layer, Layer, ParseOutcome};
use crate::program::{ProgramScratch, RmtProgram, Stage};
use crate::table::{MatchKey, MatchKind, Table};

/// Number of [`Layer`] variants — the width of the compiled parser's
/// per-layer transition array.
const LAYER_COUNT: usize = 6;

#[inline]
fn layer_index(layer: Layer) -> usize {
    match layer {
        Layer::Ethernet => 0,
        Layer::Ipv4 => 1,
        Layer::Udp => 2,
        Layer::Tcp => 3,
        Layer::Esp => 4,
        Layer::Kvs => 5,
    }
}

/// The compiled parser: per-layer transition tables.
///
/// The interpreter resolves each transition by scanning the *global*
/// edge list (first match in insertion order wins). Compilation
/// buckets edges by source layer, drops duplicate selector values
/// (keeping the first, which is the one the interpreter would find)
/// and sorts each bucket by value so the walk binary-searches only the
/// current layer's edges.
#[derive(Debug, Clone)]
struct CompiledParser {
    start: Layer,
    /// `edges[layer_index(from)]`, sorted by selector value, one entry
    /// per distinct value.
    edges: [Vec<(u64, Layer)>; LAYER_COUNT],
}

impl CompiledParser {
    fn compile(program: &RmtProgram) -> CompiledParser {
        let graph = program.parser();
        let mut edges: [Vec<(u64, Layer)>; LAYER_COUNT] = Default::default();
        for (from, value, next) in graph.edges() {
            let bucket = &mut edges[layer_index(from)];
            // First insertion for a (from, value) pair wins, exactly as
            // the interpreter's first-match scan does.
            if !bucket.iter().any(|&(v, _)| v == value) {
                bucket.push((value, next));
            }
        }
        for bucket in &mut edges {
            bucket.sort_unstable_by_key(|&(v, _)| v);
        }
        CompiledParser {
            start: graph.start(),
            edges,
        }
    }

    #[inline]
    fn next_layer(&self, from: Layer, selector: u64) -> Option<Layer> {
        let bucket = &self.edges[layer_index(from)];
        bucket
            .binary_search_by_key(&selector, |&(v, _)| v)
            .ok()
            .map(|i| bucket[i].1)
    }

    /// Byte-identical to [`crate::parse::ParseGraph::parse_into`]: same
    /// extraction (shared `extract_layer`), same stop conditions, same
    /// primary/secondary selector fallback.
    fn parse_into(&self, data: &[u8], out: &mut ParseOutcome) {
        out.phv = Phv::new();
        out.layers.clear();
        let mut offset = 0usize;
        let mut layer = self.start;
        while let Some((sel_a, sel_b)) =
            extract_layer(layer, &data[offset.min(data.len())..], &mut out.phv)
        {
            out.layers.push((layer, offset));
            offset += layer.header_size();
            match self
                .next_layer(layer, sel_a)
                .or_else(|| self.next_layer(layer, sel_b))
            {
                Some(next) => layer = next,
                None => break,
            }
        }
        out.payload_offset = offset;
    }
}

/// One compiled match stage: a lowered matcher plus the action store.
///
/// `actions` holds the entry actions in insertion order; matcher rows
/// carry an index into it. The miss action lives separately so a miss
/// needs no sentinel index.
#[derive(Debug, Clone)]
struct CompiledStage {
    name: String,
    matcher: CompiledMatcher,
    actions: Vec<Action>,
    default_action: Action,
}

#[derive(Debug, Clone)]
enum CompiledMatcher {
    /// Sorted key matrix. `keys` is row-major with stride `arity`;
    /// `order` lists row ids sorted lexicographically by key, and
    /// `action_of[row]` maps a row back to its action.
    Exact {
        fields: Vec<Field>,
        arity: usize,
        keys: Vec<u64>,
        order: Vec<u32>,
        action_of: Vec<u32>,
    },
    /// Rows sorted by `(prefix_len desc, insertion asc)`; first match
    /// is the longest prefix (earliest on ties, matching the
    /// interpreter's strict `>` best-tracking). `shift >= 64` encodes
    /// the `/0` catch-all.
    Lpm { field: Field, rows: Vec<LpmRow> },
    /// Rows sorted by `(priority desc, insertion asc)`; first match
    /// wins. `pairs` is row-major `(value & mask, mask)` with stride
    /// `arity`.
    Ternary {
        fields: Vec<Field>,
        arity: usize,
        pairs: Vec<(u64, u64)>,
        action_of: Vec<u32>,
    },
}

#[derive(Debug, Clone, Copy)]
struct LpmRow {
    shift: u32,
    prefix_shifted: u64,
    action: u32,
}

impl CompiledStage {
    fn compile(table: &Table) -> CompiledStage {
        let actions: Vec<Action> = table.entries().iter().map(|e| e.action.clone()).collect();
        let matcher = match table.kind() {
            MatchKind::Exact(fields) => {
                let arity = fields.len();
                let mut keys: Vec<u64> = Vec::new();
                let mut action_of: Vec<u32> = Vec::new();
                for (idx, e) in table.entries().iter().enumerate() {
                    let MatchKey::Exact(vals) = &e.key else {
                        continue;
                    };
                    // Duplicate keys: the interpreter's scan returns the
                    // first insertion, so later duplicates are dead rows.
                    let dup = (0..action_of.len())
                        .any(|r| &keys[r * arity..(r + 1) * arity] == vals.as_slice());
                    if dup {
                        continue;
                    }
                    keys.extend_from_slice(vals);
                    action_of.push(idx as u32);
                }
                let mut order: Vec<u32> = (0..action_of.len() as u32).collect();
                order.sort_unstable_by(|&a, &b| {
                    keys[a as usize * arity..(a as usize + 1) * arity]
                        .cmp(&keys[b as usize * arity..(b as usize + 1) * arity])
                });
                CompiledMatcher::Exact {
                    fields: fields.clone(),
                    arity,
                    keys,
                    order,
                    action_of,
                }
            }
            MatchKind::Lpm(field) => {
                let mut rows: Vec<(u8, usize, LpmRow)> = Vec::new();
                for (idx, e) in table.entries().iter().enumerate() {
                    let MatchKey::Lpm {
                        value,
                        prefix_len,
                        width_bits,
                    } = e.key
                    else {
                        continue;
                    };
                    let row = if prefix_len == 0 {
                        LpmRow {
                            shift: 64,
                            prefix_shifted: 0,
                            action: idx as u32,
                        }
                    } else {
                        let shift = u32::from(width_bits - prefix_len);
                        LpmRow {
                            shift,
                            prefix_shifted: value >> shift,
                            action: idx as u32,
                        }
                    };
                    rows.push((prefix_len, idx, row));
                }
                rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                CompiledMatcher::Lpm {
                    field: *field,
                    rows: rows.into_iter().map(|(_, _, r)| r).collect(),
                }
            }
            MatchKind::Ternary(fields) => {
                let arity = fields.len();
                let mut rows: Vec<(i32, usize)> = Vec::new();
                for (idx, e) in table.entries().iter().enumerate() {
                    if matches!(e.key, MatchKey::Ternary(_)) {
                        rows.push((e.priority, idx));
                    }
                }
                rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(rows.len() * arity);
                let mut action_of: Vec<u32> = Vec::with_capacity(rows.len());
                for &(_, idx) in &rows {
                    let MatchKey::Ternary(ps) = &table.entries()[idx].key else {
                        unreachable!("row list only holds ternary keys");
                    };
                    pairs.extend(ps.iter().map(|&(v, m)| (v & m, m)));
                    action_of.push(idx as u32);
                }
                CompiledMatcher::Ternary {
                    fields: fields.clone(),
                    arity,
                    pairs,
                    action_of,
                }
            }
        };
        CompiledStage {
            name: table.name().to_string(),
            matcher,
            actions,
            default_action: table.default_action().clone(),
        }
    }
}

impl Stage for CompiledStage {
    fn name(&self) -> &str {
        &self.name
    }

    /// Semantics-identical to [`Table::lookup`].
    #[inline]
    fn lookup(&self, phv: &Phv) -> (&Action, bool) {
        match &self.matcher {
            CompiledMatcher::Exact {
                fields,
                arity,
                keys,
                order,
                action_of,
            } => {
                // Any absent field fails every exact entry.
                for &f in fields {
                    if !phv.has(f) {
                        return (&self.default_action, false);
                    }
                }
                let arity = *arity;
                let found = order.binary_search_by(|&r| {
                    let row = &keys[r as usize * arity..(r as usize + 1) * arity];
                    let mut ord = std::cmp::Ordering::Equal;
                    for (j, &k) in row.iter().enumerate() {
                        ord = k.cmp(&phv.get_or_zero(fields[j]));
                        if ord != std::cmp::Ordering::Equal {
                            break;
                        }
                    }
                    ord
                });
                match found {
                    Ok(pos) => (&self.actions[action_of[order[pos] as usize] as usize], true),
                    Err(_) => (&self.default_action, false),
                }
            }
            CompiledMatcher::Lpm { field, rows } => {
                let Some(value) = phv.get(*field) else {
                    return (&self.default_action, false);
                };
                for row in rows {
                    if row.shift >= 64 || (value >> row.shift) == row.prefix_shifted {
                        return (&self.actions[row.action as usize], true);
                    }
                }
                (&self.default_action, false)
            }
            CompiledMatcher::Ternary {
                fields,
                arity,
                pairs,
                action_of,
            } => {
                'row: for (r, &action) in action_of.iter().enumerate() {
                    let row = &pairs[r * arity..(r + 1) * arity];
                    for (j, &(vm, m)) in row.iter().enumerate() {
                        // Mask 0 is an explicit don't-care: matches even
                        // when the field is absent.
                        let hit = m == 0 || phv.get(fields[j]).is_some_and(|pv| pv & m == vm);
                        if !hit {
                            continue 'row;
                        }
                    }
                    return (&self.actions[action as usize], true);
                }
                (&self.default_action, false)
            }
        }
    }
}

/// A program lowered into monomorphized dispatch (see module docs).
///
/// Built once from an [`RmtProgram`]; the per-message path
/// ([`CompiledProgram::process_scratch`]) does no graph scanning and no
/// `MatchKey` interpretation. Behaviour is byte-identical to the
/// interpreter — the pipeline runs the compiled form, the interpreter
/// remains the reference the tests diff against.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    parser: CompiledParser,
    stages: Vec<CompiledStage>,
}

impl CompiledProgram {
    /// Lowers `program`. Pure function of the program's structure.
    #[must_use]
    pub fn compile(program: &RmtProgram) -> CompiledProgram {
        CompiledProgram {
            parser: CompiledParser::compile(program),
            stages: program
                .tables()
                .iter()
                .map(CompiledStage::compile)
                .collect(),
        }
    }

    /// Number of match+action stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Runs the compiled program over `msg` — drop-in replacement for
    /// [`RmtProgram::process_scratch`] with identical observable
    /// behaviour: same observer callbacks `(stage, table_name, hit)`,
    /// same `Drop` short-circuit, same copy-on-change payload handling,
    /// same metadata, chain, priority and receive-queue updates, same
    /// PHV left in `scratch`.
    pub fn process_scratch(
        &self,
        msg: &mut Message,
        scratch: &mut ProgramScratch,
        observer: &mut dyn FnMut(usize, &str, bool),
    ) -> Verdict {
        self.parser.parse_into(&msg.payload, scratch.outcome_mut());
        scratch.run(msg, &self.stages, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Primitive, SlackExpr};
    use crate::parse::ParseGraph;
    use crate::program::ProgramBuilder;
    use crate::table::TableEntry;
    use bytes::Bytes;
    use packet::chain::EngineId;
    use packet::headers::{
        build_esp_frame, build_udp_frame, ethertype, EspHeader, EthernetHeader, Ipv4Addr,
        Ipv4Header, MacAddr, UdpHeader,
    };
    use packet::message::{Message, MessageId, MessageKind, Priority};
    use proptest::prelude::*;

    const KVS_PORT: u16 = 6379;

    fn eth() -> EthernetHeader {
        EthernetHeader {
            dst: MacAddr::for_port(0),
            src: MacAddr::for_port(1),
            ethertype: ethertype::IPV4,
        }
    }

    fn ip(proto: u8) -> Ipv4Header {
        Ipv4Header {
            tos: 0,
            total_len: 0,
            ident: 0,
            ttl: 64,
            protocol: proto,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    fn udp_frame(dst_port: u16) -> Bytes {
        build_udp_frame(
            eth(),
            ip(0),
            UdpHeader {
                src_port: 1000,
                dst_port,
                len: 0,
                checksum: 0,
            },
            b"payload",
        )
    }

    fn msg_of(frame: Bytes) -> Message {
        Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(frame)
            .source(EngineId(0))
            .build()
    }

    /// Frames covering every parser path: KVS, plain UDP, ESP
    /// (terminal), corrupt IP checksum, truncation, non-IP ethertype.
    fn frame_corpus() -> Vec<Bytes> {
        let mut frames = vec![udp_frame(KVS_PORT), udp_frame(80), udp_frame(23)];
        frames.push(build_esp_frame(
            eth(),
            ip(50),
            EspHeader { spi: 9, seq: 2 },
            &[0x42; 16],
        ));
        let mut corrupt = udp_frame(80).to_vec();
        corrupt[20] ^= 0x5a;
        frames.push(Bytes::from(corrupt));
        frames.push(udp_frame(KVS_PORT).slice(0..18));
        let mut e = eth();
        e.ethertype = ethertype::ARP;
        frames.push(build_udp_frame(
            e,
            ip(0),
            UdpHeader {
                src_port: 0,
                dst_port: 0,
                len: 0,
                checksum: 0,
            },
            b"",
        ));
        frames
    }

    /// Runs `program` interpreted and compiled over the same message,
    /// each through its own scratch, and asserts every observable is
    /// identical: verdict, observer call sequence, the descriptor on
    /// the message (payload bytes, chain, priority, receive queue, pass
    /// count) and the whole PHV each pass left in its scratch.
    fn assert_equivalent(program: &RmtProgram, frame: &Bytes) {
        let compiled = CompiledProgram::compile(program);
        let mut ref_scratch = ProgramScratch::default();
        let mut compiled_scratch = ProgramScratch::default();

        let mut m_ref = msg_of(frame.clone());
        let mut obs_ref: Vec<(usize, String, bool)> = Vec::new();
        let v_ref = program.process_scratch(&mut m_ref, &mut ref_scratch, &mut |s, n, h| {
            obs_ref.push((s, n.to_string(), h));
        });

        let mut m_c = msg_of(frame.clone());
        let mut obs_c: Vec<(usize, String, bool)> = Vec::new();
        let v_c = compiled.process_scratch(&mut m_c, &mut compiled_scratch, &mut |s, n, h| {
            obs_c.push((s, n.to_string(), h));
        });

        assert_eq!(v_ref, v_c, "verdict diverged");
        assert_eq!(obs_ref, obs_c, "observer sequence diverged");
        assert_eq!(&m_ref.payload[..], &m_c.payload[..], "payload diverged");
        assert_eq!(m_ref.chain.hops(), m_c.chain.hops(), "chain diverged");
        assert_eq!(m_ref.priority, m_c.priority, "priority diverged");
        assert_eq!(m_ref.rx_queue, m_c.rx_queue, "receive queue diverged");
        assert_eq!(m_ref.pipeline_passes, m_c.pipeline_passes);
        assert_eq!(ref_scratch.phv(), compiled_scratch.phv(), "PHV diverged");
    }

    fn push_hop(engine: u16) -> Action {
        Action::named(
            format!("to-{engine}"),
            vec![Primitive::PushHop {
                engine: EngineId(engine),
                slack: SlackExpr::Const(u32::from(engine)),
            }],
        )
    }

    #[test]
    fn exact_program_equivalent_over_corpus() {
        let mut classify = Table::new(
            "classify",
            MatchKind::Exact(vec![Field::L4DstPort]),
            Action::named("bulk", vec![Primitive::SetPriority(Priority::Bulk)]),
        );
        classify.insert(TableEntry {
            key: MatchKey::Exact(vec![u64::from(KVS_PORT)]),
            priority: 0,
            action: Action::named("lat", vec![Primitive::SetPriority(Priority::Latency)]),
        });
        let mut route = Table::new(
            "route",
            MatchKind::Exact(vec![Field::L4DstPort]),
            push_hop(9),
        );
        route.insert(TableEntry {
            key: MatchKey::Exact(vec![u64::from(KVS_PORT)]),
            priority: 0,
            action: push_hop(4),
        });
        let prog = ProgramBuilder::new("demo", ParseGraph::standard(KVS_PORT))
            .stage(classify)
            .stage(route)
            .build();
        for frame in frame_corpus() {
            assert_equivalent(&prog, &frame);
        }
    }

    #[test]
    fn drop_and_recirculate_equivalent() {
        let mut acl = Table::new(
            "acl",
            MatchKind::Exact(vec![Field::L4DstPort]),
            Action::noop(),
        );
        acl.insert(TableEntry {
            key: MatchKey::Exact(vec![23]),
            priority: 0,
            action: Action::drop_msg(),
        });
        acl.insert(TableEntry {
            key: MatchKey::Exact(vec![80]),
            priority: 0,
            action: Action::named(
                "again",
                vec![
                    Primitive::PushHop {
                        engine: EngineId(3),
                        slack: SlackExpr::Const(10),
                    },
                    Primitive::Recirculate,
                ],
            ),
        });
        let late = Table::new("late", MatchKind::Exact(vec![Field::IpProto]), push_hop(1));
        let prog = ProgramBuilder::new("acl", ParseGraph::standard(KVS_PORT))
            .stage(acl)
            .stage(late)
            .build();
        for frame in frame_corpus() {
            assert_equivalent(&prog, &frame);
        }
    }

    #[test]
    fn exact_duplicate_key_first_insertion_wins() {
        let mut t = Table::new(
            "dup",
            MatchKind::Exact(vec![Field::L4DstPort]),
            Action::noop(),
        );
        t.insert(TableEntry {
            key: MatchKey::Exact(vec![80]),
            priority: 0,
            action: push_hop(1),
        });
        t.insert(TableEntry {
            key: MatchKey::Exact(vec![80]),
            priority: 0,
            action: push_hop(2),
        });
        let prog = ProgramBuilder::new("dup", ParseGraph::standard(KVS_PORT))
            .stage(t)
            .build();
        assert_equivalent(&prog, &udp_frame(80));
        let mut m = msg_of(udp_frame(80));
        CompiledProgram::compile(&prog).process_scratch(
            &mut m,
            &mut ProgramScratch::default(),
            &mut |_, _, _| {},
        );
        assert_eq!(m.chain.hops()[0].engine, EngineId(1));
    }

    #[test]
    fn lpm_tie_breaks_equivalent() {
        // Equal prefix lengths: earliest insertion wins; longer prefix
        // beats shorter regardless of order; /0 catch-all matches all.
        let mut t = Table::new("lpm", MatchKind::Lpm(Field::IpDst), Action::noop());
        for (value, prefix_len, engine) in [
            (0x0a00_0000u64, 8, 1u16),
            (0x0a00_0002, 32, 2),
            (0x0a00_0000, 8, 3),  // dead: duplicate /8
            (0, 0, 4),            // catch-all
            (0x0a00_0000, 24, 5), // longer than /8, inserted later
        ] {
            t.insert(TableEntry {
                key: MatchKey::Lpm {
                    value,
                    prefix_len,
                    width_bits: 32,
                },
                priority: 0,
                action: push_hop(engine),
            });
        }
        let prog = ProgramBuilder::new("lpm", ParseGraph::standard(KVS_PORT))
            .stage(t)
            .build();
        for frame in frame_corpus() {
            assert_equivalent(&prog, &frame);
        }
        // 10.0.0.2 → /32; corpus frames go to 10.0.0.2, so also probe
        // the /24 and catch-all paths directly via Table::lookup parity
        // (covered by the proptest below).
    }

    #[test]
    fn ternary_priority_and_dont_care_equivalent() {
        let mut t = Table::new(
            "tern",
            MatchKind::Ternary(vec![Field::IpProto, Field::L4DstPort]),
            Action::noop(),
        );
        // Mask-0 don't-care on L4DstPort: must match ESP frames where
        // the parser never populated the field.
        t.insert(TableEntry {
            key: MatchKey::Ternary(vec![(50, 0xff), (0, 0)]),
            priority: 5,
            action: push_hop(7),
        });
        t.insert(TableEntry {
            key: MatchKey::Ternary(vec![(17, 0xff), (80, 0xffff)]),
            priority: 10,
            action: push_hop(8),
        });
        // Same priority as above, inserted later: loses ties.
        t.insert(TableEntry {
            key: MatchKey::Ternary(vec![(17, 0xff), (0x50, 0x00ff)]),
            priority: 10,
            action: push_hop(9),
        });
        let prog = ProgramBuilder::new("tern", ParseGraph::standard(KVS_PORT))
            .stage(t)
            .build();
        for frame in frame_corpus() {
            assert_equivalent(&prog, &frame);
        }
    }

    #[test]
    fn parser_duplicate_edge_first_wins() {
        // Two transitions for the same (Ethernet, IPV4) selector: the
        // interpreter takes the first; the compiled parser must too.
        let graph = ParseGraph::starting_at(Layer::Ethernet)
            .with_edge(Layer::Ethernet, u64::from(ethertype::IPV4), Layer::Ipv4)
            .with_edge(Layer::Ethernet, u64::from(ethertype::IPV4), Layer::Esp)
            .with_edge(Layer::Ipv4, 17, Layer::Udp);
        let prog = ProgramBuilder::new("dup-edge", graph)
            .stage(Table::new(
                "t",
                MatchKind::Exact(vec![Field::IpProto]),
                Action::noop(),
            ))
            .build();
        for frame in frame_corpus() {
            assert_equivalent(&prog, &frame);
        }
    }

    proptest! {
        /// Compiled stage lookup ≡ interpreted `Table::lookup` for
        /// arbitrary ternary tables and PHVs (action identity compared
        /// by name; hit flag compared directly).
        #[test]
        fn ternary_lookup_matches_interpreter(
            entries in proptest::collection::vec(
                (0u64..16, 0u64..16, 0u64..16, 0u64..16, -3i32..3), 0..12),
            proto in (any::<bool>(), 0u64..16),
            port in (any::<bool>(), 0u64..16),
        ) {
            let mut t = Table::new(
                "t",
                MatchKind::Ternary(vec![Field::IpProto, Field::L4DstPort]),
                Action::named("miss", vec![Primitive::NoOp]),
            );
            for (i, &(v1, m1, v2, m2, pri)) in entries.iter().enumerate() {
                t.insert(TableEntry {
                    key: MatchKey::Ternary(vec![(v1, m1), (v2, m2)]),
                    priority: pri,
                    action: Action::named(format!("e{i}"), vec![Primitive::NoOp]),
                });
            }
            let compiled = CompiledStage::compile(&t);
            let mut phv = Phv::new();
            if proto.0 { phv.set(Field::IpProto, proto.1); }
            if port.0 { phv.set(Field::L4DstPort, port.1); }
            let (a_ref, hit_ref) = t.lookup(&phv);
            let (a_c, hit_c) = compiled.lookup(&phv);
            prop_assert_eq!(hit_ref, hit_c);
            prop_assert_eq!(a_ref.name(), a_c.name());
        }

        /// Compiled LPM lookup ≡ interpreted lookup for arbitrary
        /// prefix sets and addresses.
        #[test]
        fn lpm_lookup_matches_interpreter(
            entries in proptest::collection::vec((0u64..=u32::MAX as u64, 0u8..=32), 0..12),
            addr in (any::<bool>(), 0u64..=u32::MAX as u64),
        ) {
            let mut t = Table::new(
                "t",
                MatchKind::Lpm(Field::IpDst),
                Action::named("miss", vec![Primitive::NoOp]),
            );
            for (i, &(value, prefix_len)) in entries.iter().enumerate() {
                t.insert(TableEntry {
                    key: MatchKey::Lpm { value, prefix_len, width_bits: 32 },
                    priority: 0,
                    action: Action::named(format!("e{i}"), vec![Primitive::NoOp]),
                });
            }
            let compiled = CompiledStage::compile(&t);
            let mut phv = Phv::new();
            if addr.0 { phv.set(Field::IpDst, addr.1); }
            let (a_ref, hit_ref) = t.lookup(&phv);
            let (a_c, hit_c) = compiled.lookup(&phv);
            prop_assert_eq!(hit_ref, hit_c);
            prop_assert_eq!(a_ref.name(), a_c.name());
        }

        /// Compiled exact lookup ≡ interpreted lookup, including
        /// duplicate keys and absent fields.
        #[test]
        fn exact_lookup_matches_interpreter(
            entries in proptest::collection::vec((0u64..8, 0u64..8), 0..12),
            f1 in (any::<bool>(), 0u64..8),
            f2 in (any::<bool>(), 0u64..8),
        ) {
            let mut t = Table::new(
                "t",
                MatchKind::Exact(vec![Field::IpProto, Field::L4DstPort]),
                Action::named("miss", vec![Primitive::NoOp]),
            );
            for (i, &(v1, v2)) in entries.iter().enumerate() {
                t.insert(TableEntry {
                    key: MatchKey::Exact(vec![v1, v2]),
                    priority: 0,
                    action: Action::named(format!("e{i}"), vec![Primitive::NoOp]),
                });
            }
            let compiled = CompiledStage::compile(&t);
            let mut phv = Phv::new();
            if f1.0 { phv.set(Field::IpProto, f1.1); }
            if f2.0 { phv.set(Field::L4DstPort, f2.1); }
            let (a_ref, hit_ref) = t.lookup(&phv);
            let (a_c, hit_c) = compiled.lookup(&phv);
            prop_assert_eq!(hit_ref, hit_c);
            prop_assert_eq!(a_ref.name(), a_c.name());
        }

        /// Compiled parser ≡ interpreted parse graph over random UDP
        /// frames and a random extra edge set.
        #[test]
        fn parser_matches_interpreter(
            dst_port in 0u16..1024,
            extra in proptest::collection::vec((0u64..1024, 0usize..3), 0..4),
        ) {
            let mut g = ParseGraph::standard(KVS_PORT);
            for &(value, which) in &extra {
                let next = [Layer::Udp, Layer::Tcp, Layer::Esp][which];
                g = g.with_edge(Layer::Ipv4, value, next);
            }
            let prog = ProgramBuilder::new("p", g)
                .stage(Table::new(
                    "t",
                    MatchKind::Exact(vec![Field::IpProto]),
                    Action::noop(),
                ))
                .build();
            let compiled = CompiledProgram::compile(&prog);
            let frame = udp_frame(dst_port);
            let out_ref = prog.parser().parse(&frame);
            let mut out_c = ParseOutcome::default();
            compiled.parser.parse_into(&frame, &mut out_c);
            prop_assert_eq!(out_ref, out_c);
        }
    }
}
