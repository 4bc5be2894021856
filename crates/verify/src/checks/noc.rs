//! NoC deadlock & buffer checks (`PV1xx`).
//!
//! A switched NoC with credit flow control deadlocks iff its
//! channel-dependency graph (CDG) has a cycle (Dally & Seitz). The
//! checker builds the CDG induced by the routing function the router
//! implements, dimension-ordered XY — nodes are directed mesh
//! channels, an edge `c1 → c2` means some route holds `c1` while
//! waiting for `c2` — and proves it acyclic with a DFS, or reports a
//! witness cycle (PV101).
//!
//! The buffer lints are about credits: a zero-capacity buffer means a
//! link that can never be granted a credit, i.e. a wire that carries
//! nothing, which in this simulator manifests as a silent stall, and a
//! buffer beyond `u16::MAX` flits is more than a router's credit
//! counter can hold (both PV102). Small-but-nonzero buffers are legal
//! but throttle the link (PV103).

use std::collections::HashMap;

use noc::topology::Direction;
use noc::{Coord, Topology};

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::spec::NicSpec;

/// A directed mesh channel: the link from one router to an adjacent one.
type Channel = (Coord, Coord);

/// Largest Ethernet frame the NIC must carry, in bytes.
const MAX_FRAME_BYTES: u64 = 1518;

/// Flits needed to carry the largest frame.
fn max_frame_flits(spec: &NicSpec) -> u64 {
    MAX_FRAME_BYTES.div_ceil(spec.flit_bytes())
}

/// Runs the `PV1xx` family against `spec`.
#[must_use]
pub fn check_noc(spec: &NicSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_deadlock(spec, &mut out);
    check_buffers(spec, &mut out);
    out
}

/// All directed channels of the mesh.
fn channels(topo: Topology) -> Vec<Channel> {
    let mut chans = Vec::new();
    for c in topo.coords() {
        for dir in Direction::ALL {
            if let Some(n) = topo.neighbor(c, dir) {
                chans.push((c, n));
            }
        }
    }
    chans
}

/// CDG edges under dimension-ordered XY routing: walk every (src, dst)
/// route the router would actually take and link consecutive channels.
fn xy_edges(topo: Topology) -> Vec<(Channel, Channel)> {
    let mut edges = Vec::new();
    for src in topo.coords() {
        for dst in topo.coords() {
            if src == dst {
                continue;
            }
            let mut prev: Option<Channel> = None;
            let mut cur = src;
            while cur != dst {
                let dir = topo
                    .route_xy(cur, dst)
                    .expect("route_xy is total for distinct in-mesh coords");
                let next = topo
                    .neighbor(cur, dir)
                    .expect("route_xy only returns traversable directions");
                let chan = (cur, next);
                if let Some(p) = prev {
                    edges.push((p, chan));
                }
                prev = Some(chan);
                cur = next;
            }
        }
    }
    edges.sort_unstable_by_key(|&((a, b), (c, d))| (a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y));
    edges.dedup();
    edges
}

/// DFS cycle detection over the CDG. Returns a witness channel on a
/// cycle, `None` when acyclic.
fn find_cycle(nodes: &[Channel], edges: &[(Channel, Channel)]) -> Option<Channel> {
    let mut adj: HashMap<Channel, Vec<Channel>> = HashMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    // 0 = white, 1 = on stack, 2 = done.
    let mut color: HashMap<Channel, u8> = nodes.iter().map(|&c| (c, 0)).collect();
    for &start in nodes {
        if color[&start] != 0 {
            continue;
        }
        // Iterative DFS with an explicit stack of (node, next-child).
        let mut stack: Vec<(Channel, usize)> = vec![(start, 0)];
        color.insert(start, 1);
        while let Some(&(node, i)) = stack.last() {
            let succs = adj.get(&node).map_or(&[][..], Vec::as_slice);
            if i < succs.len() {
                stack.last_mut().expect("stack is non-empty").1 = i + 1;
                let next = succs[i];
                match color.get(&next).copied().unwrap_or(0) {
                    0 => {
                        color.insert(next, 1);
                        stack.push((next, 0));
                    }
                    1 => return Some(next), // back edge: cycle witness
                    _ => {}
                }
            } else {
                color.insert(node, 2);
                stack.pop();
            }
        }
    }
    None
}

/// PV101: prove XY routing deadlock-free, or report the witness cycle.
fn check_deadlock(spec: &NicSpec, out: &mut Vec<Diagnostic>) {
    let topo = spec.topology;
    out.extend(deadlock(topo, &xy_edges(topo)));
}

/// The PV101 finding for the CDG `edges` over `topo`'s channels, if
/// it has a cycle.
fn deadlock(topo: Topology, edges: &[(Channel, Channel)]) -> Option<Diagnostic> {
    let (a, b) = find_cycle(&channels(topo), edges)?;
    Some(Diagnostic::new(
        Code::PV101,
        Severity::Error,
        Span::at("noc", format!("channel {a}->{b}")),
        format!(
            "routing on the {topo} mesh has a cyclic channel-dependency \
             graph (witness cycle through channel {a}->{b}): credit deadlock is \
             reachable"
        ),
    ))
}

/// PV102 / PV103: buffer and credit sizing.
fn check_buffers(spec: &NicSpec, out: &mut Vec<Diagnostic>) {
    let r = spec.router;
    if r.input_buffer_flits == 0 {
        out.push(Diagnostic::new(
            Code::PV102,
            Severity::Error,
            Span::at("noc", "input_buffer_flits"),
            "router input buffers hold zero flits: neighbors start with zero \
             credits and no flit can ever cross a link"
                .to_string(),
        ));
    }
    if r.ejection_buffer_flits == 0 {
        out.push(Diagnostic::new(
            Code::PV102,
            Severity::Error,
            Span::at("noc", "ejection_buffer_flits"),
            "ejection buffers hold zero flits: no packet can ever leave the mesh".to_string(),
        ));
    }
    // The router counts occupancy and credits in 16 bits
    // (`noc::Router`); a larger buffer is refused here rather than
    // wrapped there.
    for (field, flits) in [
        ("input_buffer_flits", r.input_buffer_flits),
        ("ejection_buffer_flits", r.ejection_buffer_flits),
    ] {
        if flits > usize::from(u16::MAX) {
            out.push(Diagnostic::new(
                Code::PV102,
                Severity::Error,
                Span::at("noc", field),
                format!(
                    "{field} = {flits} flits exceeds the router's 16-bit occupancy and \
                     credit counters (max {})",
                    u16::MAX
                ),
            ));
        }
    }
    if r.input_buffer_flits == 1 {
        out.push(Diagnostic::new(
            Code::PV103,
            Severity::Warn,
            Span::at("noc", "input_buffer_flits"),
            "single-flit input buffers cannot cover the credit round-trip: every \
             link stalls one cycle per flit, halving channel bandwidth"
                .to_string(),
        ));
    } else if (r.input_buffer_flits as u64) < max_frame_flits(spec) {
        out.push(Diagnostic::new(
            Code::PV103,
            Severity::Info,
            Span::at("noc", "input_buffer_flits"),
            format!(
                "input buffers ({} flits) are smaller than the largest frame \
                 ({} flits at {} B); large packets will span multiple routers \
                 in flight, which is correct (wormhole) but couples their \
                 blocking behavior",
                r.input_buffer_flits,
                max_frame_flits(spec),
                MAX_FRAME_BYTES
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(k: u8) -> NicSpec {
        NicSpec::new(Topology::mesh(k, k))
    }

    #[test]
    fn xy_routing_is_certified_deadlock_free() {
        for k in [2u8, 3, 4, 6] {
            let diags = check_noc(&spec(k));
            assert!(
                !diags.iter().any(|d| d.code == Code::PV101),
                "XY flagged on {k}x{k}"
            );
        }
    }

    #[test]
    fn pv101_reports_a_cyclic_dependency_graph() {
        // The four turns around a 2x2 mesh — the cycle a minimal
        // adaptive function without escape VCs closes — are refuted
        // with a witness channel on the cycle.
        let topo = Topology::mesh(2, 2);
        let ring = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)].map(|(x, y)| Coord::new(x, y));
        let chans: Vec<Channel> = ring.windows(2).map(|w| (w[0], w[1])).collect();
        let edges: Vec<_> = (0..4).map(|i| (chans[i], chans[(i + 1) % 4])).collect();
        let d = deadlock(topo, &edges).expect("PV101");
        assert_eq!(d.code, Code::PV101);
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("witness"), "{}", d.message);
        // Drop one turn and the graph is acyclic again.
        assert!(deadlock(topo, &edges[1..]).is_none());
    }

    #[test]
    fn pv102_zero_credit_links() {
        let mut s = spec(4);
        s.router.input_buffer_flits = 0;
        let diags = check_noc(&s);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PV102 && d.severity == Severity::Error));

        let mut s = spec(4);
        s.router.ejection_buffer_flits = 0;
        assert!(check_noc(&s).iter().any(|d| d.code == Code::PV102));
    }

    #[test]
    fn pv102_buffers_beyond_the_router_counters() {
        // u16::MAX flits is the largest buffer a router can count...
        let mut s = spec(4);
        s.router.input_buffer_flits = usize::from(u16::MAX);
        s.router.ejection_buffer_flits = usize::from(u16::MAX);
        assert!(!check_noc(&s).iter().any(|d| d.code == Code::PV102));
        // ...one more is denied, per field, not silently wrapped.
        for field in ["input_buffer_flits", "ejection_buffer_flits"] {
            let mut s = spec(4);
            let too_big = usize::from(u16::MAX) + 1;
            match field {
                "input_buffer_flits" => s.router.input_buffer_flits = too_big,
                _ => s.router.ejection_buffer_flits = too_big,
            }
            let diags = check_noc(&s);
            let d = diags
                .iter()
                .find(|d| d.code == Code::PV102)
                .unwrap_or_else(|| panic!("PV102 for {field}"));
            assert_eq!(d.severity, Severity::Error);
            assert!(d.message.contains(field) && d.message.contains("65535"));
        }
    }

    #[test]
    fn pv103_single_flit_buffer_warns() {
        let mut s = spec(4);
        s.router.input_buffer_flits = 1;
        let diags = check_noc(&s);
        let d = diags.iter().find(|d| d.code == Code::PV103).expect("PV103");
        assert_eq!(d.severity, Severity::Warn);
    }

    #[test]
    fn pv103_sub_frame_buffer_is_informational() {
        // The default 8-flit buffer is smaller than a 1518 B frame
        // (190 8-byte flits): that is the normal wormhole regime, Info
        // not Warn.
        assert_eq!(max_frame_flits(&spec(4)), 190);
        let diags = check_noc(&spec(4));
        let d = diags.iter().find(|d| d.code == Code::PV103).expect("PV103");
        assert_eq!(d.severity, Severity::Info);
        // And a buffer at least one frame deep clears the lint.
        let mut s = spec(4);
        s.router.input_buffer_flits = 200;
        assert!(!check_noc(&s).iter().any(|d| d.code == Code::PV103));
    }

    #[test]
    fn xy_cdg_has_expected_shape() {
        // On a 2x2 mesh the XY CDG must only ever turn from X channels
        // into Y channels, never back — spot-check the edge set.
        let topo = Topology::mesh(2, 2);
        for ((a, b), (c, d)) in xy_edges(topo) {
            assert_eq!(b, c, "edges must chain through a shared router");
            let first_is_y = a.x == b.x;
            let second_is_y = c.x == d.x;
            assert!(
                !first_is_y || second_is_y,
                "Y->X turn {a}->{b} then {c}->{d} is illegal in XY routing"
            );
        }
    }
}
