//! `PV7xx` — rack-fabric checks.
//!
//! These lints run against a [`FabricSpec`]: N member NICs attached to
//! a simulated top-of-rack switch by explicit directed links, with
//! offload chains allowed to take remote hops (engine addresses whose
//! remote bit names another member — see `packet::EngineId::remote`).
//! A single-NIC spec can dangle nothing across the rack, so the family
//! only exists at fabric scope:
//!
//! * **PV701** (Error): a chain hop addresses a fabric member index
//!   past the member list, or a remote engine the target member does
//!   not have — the fabric would count the message as unrouted at the
//!   destination's uplink. Also fired when the fabric itself exceeds
//!   the 32-member remote-address space (bits 14..10 of the engine
//!   address).
//! * **PV702** (Error): an inter-NIC link is unroutable — an endpoint
//!   out of range, a self-loop, a duplicate declaration of the same
//!   direction, zero credits, or zero bandwidth. Such a link either
//!   cannot exist or can never deliver a message.
//! * **PV703** (Warn): a link `A → B` has no `B → A` counterpart.
//!   One-way fabrics are constructible (the link model is directed)
//!   but almost always a mistake: replies, and any chain hopping back,
//!   have no path home.
//! * **PV704** (Error): a chain's remote hop crosses between two
//!   members that no declared link connects. The hop is well-formed
//!   (PV701-clean) but the ToR has no wire to carry it.
//!
//! When the spec arms a fabric fault plane ([`FabricSpec::faults`]),
//! the `PV8xx` family lints the chaos configuration itself:
//!
//! * **PV804** (Error): the hop retry timeout
//!   ([`faults::HOP_TIMEOUT`]) is shorter than the round trip the
//!   slowest declared link implies, so every crossing on that link
//!   would retransmit spuriously.
//!
//! [`verify_fabric`] additionally runs the full single-NIC [`verify`]
//! pass over every member, prefixing each finding's subject with
//! `nic<i>/` so a report over an 8-NIC rack still points at the
//! offending member.

use std::collections::BTreeSet;

use packet::EngineId;
use rmt::action::Primitive;
use rmt::table::Table;

use crate::checks::verify;
use crate::diag::{Code, Diagnostic, Report, Severity, Span};
use crate::spec::FabricSpec;

/// Every action reachable in `table`: the default plus each entry's.
fn actions(table: &Table) -> impl Iterator<Item = &rmt::Action> {
    std::iter::once(table.default_action()).chain(table.entries().iter().map(|e| &e.action))
}

/// Walks one chain's hops in order, tracking which member the message
/// is on, and reports dangling remote hops (PV701) and crossings with
/// no connecting link (PV704).
fn scan_chain(
    fabric: &FabricSpec,
    home: usize,
    hops: impl Iterator<Item = EngineId>,
    what: &str,
    out: &mut Vec<Diagnostic>,
) {
    let mut cur = home;
    for hop in hops {
        let Some(nic) = hop.remote_nic() else {
            continue; // local hops are the member verifier's job
        };
        let local = hop.local_part();
        if nic >= fabric.members.len() {
            out.push(Diagnostic::new(
                Code::PV701,
                Severity::Error,
                Span::at("fabric", format!("nic{home}")),
                format!(
                    "{what} addresses fabric member {nic}, but the fabric \
                     has only {} member(s)",
                    fabric.members.len()
                ),
            ));
            continue; // the crossing cannot be followed
        }
        let member = &fabric.members[nic];
        if !member.engines.is_empty() && member.engine(local).is_none() {
            out.push(Diagnostic::new(
                Code::PV701,
                Severity::Error,
                Span::at("fabric", format!("nic{home}")),
                format!(
                    "{what} addresses engine {} on member {nic}, which has \
                     no engine with that address",
                    local.0
                ),
            ));
        }
        // A hop remote-addressed to the member the message is already
        // on resolves locally (the tail of a cross-NIC chain) — no
        // crossing, so no link is needed.
        if nic == cur {
            continue;
        }
        if fabric.link(cur, nic).is_none() {
            out.push(Diagnostic::new(
                Code::PV704,
                Severity::Error,
                Span::at("fabric", format!("nic{cur}")),
                format!(
                    "{what} crosses nic{cur} -> nic{nic}, but no link \
                     connects them"
                ),
            ));
        }
        cur = nic;
    }
}

/// Runs the `PV7xx` fabric checks alone (no per-member linting).
#[must_use]
pub fn check_fabric(spec: &FabricSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = spec.members.len();

    // The remote address carries a 5-bit member index.
    if n > EngineId::MAX_FABRIC_NIC + 1 {
        out.push(Diagnostic::new(
            Code::PV701,
            Severity::Error,
            Span::at("fabric", "members"),
            format!(
                "fabric has {n} members but remote engine addresses carry \
                 at most {} (5-bit member index)",
                EngineId::MAX_FABRIC_NIC + 1
            ),
        ));
    }

    // PV702: link validity.
    let mut directions: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (i, l) in spec.links.iter().enumerate() {
        let subject = format!("link#{i}");
        if l.from >= n || l.to >= n {
            out.push(Diagnostic::new(
                Code::PV702,
                Severity::Error,
                Span::at("fabric", subject.clone()),
                format!(
                    "link endpoints nic{} -> nic{} fall outside the \
                     {n}-member fabric",
                    l.from, l.to
                ),
            ));
        } else if l.from == l.to {
            out.push(Diagnostic::new(
                Code::PV702,
                Severity::Error,
                Span::at("fabric", subject.clone()),
                format!("link nic{0} -> nic{0} is a self-loop", l.from),
            ));
        } else if !directions.insert((l.from, l.to)) {
            out.push(Diagnostic::new(
                Code::PV702,
                Severity::Error,
                Span::at("fabric", subject.clone()),
                format!("duplicate declaration of link nic{} -> nic{}", l.from, l.to),
            ));
        }
        if l.credits == 0 {
            out.push(Diagnostic::new(
                Code::PV702,
                Severity::Error,
                Span::at("fabric", subject.clone()),
                "zero-credit link can never carry a message".to_string(),
            ));
        }
        if l.bytes_per_cycle == 0 {
            out.push(Diagnostic::new(
                Code::PV702,
                Severity::Error,
                Span::at("fabric", subject),
                "zero-bandwidth link can never serialize a message".to_string(),
            ));
        }
    }

    // PV703: every valid direction should have a reverse.
    for &(from, to) in &directions {
        if !directions.contains(&(to, from)) {
            out.push(Diagnostic::new(
                Code::PV703,
                Severity::Warn,
                Span::at("fabric", format!("nic{from}->nic{to}")),
                format!(
                    "link nic{from} -> nic{to} has no reverse counterpart: \
                     nothing can flow back from nic{to}"
                ),
            ));
        }
    }

    // PV804: with a fault plane armed, the hop retry clock must
    // outlast the slowest declared link's round trip, or every crossing
    // on that link retransmits before its first copy can possibly
    // arrive.
    let slowest = spec.links.iter().map(|l| l.latency.0).max();
    if let (Some(_), Some(worst)) = (&spec.faults, slowest) {
        let rtt = worst.saturating_mul(2);
        let timeout = faults::HOP_TIMEOUT.0;
        if timeout < rtt {
            out.push(Diagnostic::new(
                Code::PV804,
                Severity::Error,
                Span::at("fabric", "faults.retry"),
                format!(
                    "hop retry timeout of {timeout} cycles is shorter than the \
                     {rtt}-cycle round trip the slowest link (latency \
                     {worst}) implies: healthy crossings would retransmit \
                     spuriously"
                ),
            ));
        }
    }

    // PV701/PV704: remote hops in declared chains — per-tenant vNIC
    // chains and RMT program PushHops alike.
    for (i, m) in spec.members.iter().enumerate() {
        if let Some(tc) = &m.tenancy {
            for v in &tc.vnics {
                for (ci, chain) in v.chains.iter().enumerate() {
                    scan_chain(
                        spec,
                        i,
                        chain.iter().copied(),
                        &format!("vNIC '{}' chain #{ci}", v.name),
                        &mut out,
                    );
                }
            }
        }
        if let Some(program) = &m.program {
            for table in program.tables() {
                for action in actions(table) {
                    let hops = action.primitives().iter().filter_map(|p| match p {
                        Primitive::PushHop { engine, .. } => Some(*engine),
                        _ => None,
                    });
                    scan_chain(
                        spec,
                        i,
                        hops,
                        &format!("action '{}/{}'", table.name(), action.name()),
                        &mut out,
                    );
                }
            }
        }
    }

    out
}

/// Runs every single-NIC check family against every member (findings
/// prefixed `nic<i>/`) plus the `PV7xx` fabric checks, and aggregates
/// everything into one report.
#[must_use]
pub fn verify_fabric(spec: &FabricSpec) -> Report {
    let mut diags = Vec::new();
    for (i, m) in spec.members.iter().enumerate() {
        for mut d in verify(m).into_diagnostics() {
            d.span.subject = if d.span.subject.is_empty() {
                format!("nic{i}")
            } else {
                format!("nic{i}/{}", d.span.subject)
            };
            diags.push(d);
        }
    }
    diags.extend(check_fabric(spec));
    Report::new(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::Topology;
    use packet::{EngineClass, TenantId};
    use tenancy::{TenancyConfig, VNicSpec};

    use crate::spec::{EngineSpec, LinkSpec, NicSpec};

    fn member() -> NicSpec {
        let mut spec = NicSpec::new(Topology::mesh(2, 2));
        spec.engines
            .push(EngineSpec::new(EngineId(0), "portal", EngineClass::Rmt));
        spec.engines
            .push(EngineSpec::new(EngineId(1), "crc", EngineClass::Asic));
        spec
    }

    fn two_nic_fabric() -> FabricSpec {
        FabricSpec::full_mesh(vec![member(), member()], LinkSpec::new(0, 0))
    }

    fn with_chain(mut fabric: FabricSpec, home: usize, chain: Vec<EngineId>) -> FabricSpec {
        fabric.members[home].tenancy = Some(TenancyConfig::new(vec![VNicSpec::new(
            TenantId(1),
            "alpha",
            1,
        )
        .chain(chain)]));
        fabric
    }

    #[test]
    fn clean_fabric_passes() {
        let fabric = with_chain(
            two_nic_fabric(),
            0,
            vec![EngineId(1), EngineId::remote(1, EngineId(1))],
        );
        let report = verify_fabric(&fabric);
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.warn_count(), 0, "{}", report.render_human());
    }

    #[test]
    fn pv701_flags_out_of_range_member() {
        let fabric = with_chain(two_nic_fabric(), 0, vec![EngineId::remote(5, EngineId(1))]);
        let diags = check_fabric(&fabric);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV701);
        assert!(
            diags[0].message.contains("member 5"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn pv701_flags_missing_remote_engine() {
        let fabric = with_chain(two_nic_fabric(), 0, vec![EngineId::remote(1, EngineId(9))]);
        let diags = check_fabric(&fabric);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::PV701 && d.message.contains("engine 9")),
            "{diags:?}"
        );
    }

    #[test]
    fn pv701_flags_oversized_fabric() {
        let fabric = FabricSpec::new(vec![NicSpec::new(Topology::mesh(2, 2)); 33]);
        let diags = check_fabric(&fabric);
        assert!(diags.iter().any(|d| d.code == Code::PV701), "{diags:?}");
    }

    #[test]
    fn pv702_flags_unroutable_links() {
        let mut fabric = two_nic_fabric();
        fabric.links.push(LinkSpec::new(0, 7)); // out of range
        fabric.links.push(LinkSpec::new(1, 1)); // self-loop
        fabric.links.push(LinkSpec::new(0, 1)); // duplicate
        fabric.links.push(LinkSpec::new(1, 0).credits(0)); // also a duplicate
        let diags = check_fabric(&fabric);
        let pv702: Vec<_> = diags.iter().filter(|d| d.code == Code::PV702).collect();
        assert_eq!(pv702.len(), 5, "{diags:?}"); // 4 shape errors + zero credits
        assert!(diags.iter().any(|d| d.message.contains("self-loop")));
        assert!(diags.iter().any(|d| d.message.contains("duplicate")));
        assert!(diags.iter().any(|d| d.message.contains("zero-credit")));
    }

    #[test]
    fn pv703_warns_on_one_way_links() {
        let mut fabric = FabricSpec::new(vec![member(), member()]);
        fabric.links.push(LinkSpec::new(0, 1));
        let diags = check_fabric(&fabric);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV703);
        assert_eq!(diags[0].severity, Severity::Warn);
    }

    #[test]
    fn pv704_flags_crossing_with_no_link() {
        // Links exist only 0<->1; the chain hops 0 -> 2.
        let mut fabric = FabricSpec::full_mesh(vec![member(), member()], LinkSpec::new(0, 0));
        fabric.members.push(member());
        let fabric = with_chain(fabric, 0, vec![EngineId::remote(2, EngineId(1))]);
        let diags = check_fabric(&fabric);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::PV704 && d.message.contains("nic0 -> nic2")),
            "{diags:?}"
        );
    }

    #[test]
    fn pv704_tracks_the_chain_across_members() {
        // alpha's chain hops 0 -> 1 (linked) then 1 -> 2 (not linked):
        // the second crossing must be attributed to nic1, not nic0.
        let mut fabric = FabricSpec::full_mesh(vec![member(), member()], LinkSpec::new(0, 0));
        fabric.members.push(member());
        let fabric = with_chain(
            fabric,
            0,
            vec![
                EngineId::remote(1, EngineId(1)),
                EngineId::remote(2, EngineId(1)),
            ],
        );
        let diags = check_fabric(&fabric);
        let pv704: Vec<_> = diags.iter().filter(|d| d.code == Code::PV704).collect();
        assert_eq!(pv704.len(), 1, "{diags:?}");
        assert!(
            pv704[0].message.contains("nic1 -> nic2"),
            "{}",
            pv704[0].message
        );
    }

    fn armed(mut fabric: FabricSpec, cfg: faults::FabricFaultConfig) -> FabricSpec {
        fabric.faults = Some(cfg);
        fabric
    }

    #[test]
    fn clean_fault_plane_passes() {
        let cfg = faults::FabricFaultConfig::new(
            faults::FabricFaultPlan::parse("flap:0-1@100+64").unwrap(),
        );
        let fabric = armed(two_nic_fabric(), cfg);
        let diags = check_fabric(&fabric);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn partitions_pass_because_fallback_is_unconditional() {
        // A permanent partition is clean: the isolated member's traffic
        // always falls back to the host and the fabric drains. A bounded
        // one recovers on its own.
        for plan in ["part:1@50", "part:1@50+200"] {
            let cfg = faults::FabricFaultConfig::new(faults::FabricFaultPlan::parse(plan).unwrap());
            let diags = check_fabric(&armed(two_nic_fabric(), cfg));
            assert!(diags.is_empty(), "{plan}: {diags:?}");
        }
    }

    #[test]
    fn pv804_flags_timeout_under_link_rtt() {
        let mut fabric = two_nic_fabric();
        for l in &mut fabric.links {
            l.latency = sim_core::time::Cycles(600);
        }
        // The hop timeout (1024) is under the 1200-cycle round trip.
        let diags = check_fabric(&armed(fabric, faults::FabricFaultConfig::default()));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV804);
        let message = &diags[0].message;
        let timeout = format!("timeout of {} cycles", faults::HOP_TIMEOUT.0);
        assert!(message.contains(&timeout), "{message}");
        assert!(message.contains("1200"), "{message}");
    }

    #[test]
    fn member_findings_are_prefixed() {
        let mut fabric = two_nic_fabric();
        fabric.members[1].engines.retain(|e| !e.is_portal()); // PV204 on nic1
        let report = verify_fabric(&fabric);
        assert!(!report.is_clean());
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == Code::PV204)
            .expect("PV204");
        assert!(d.span.subject.starts_with("nic1"), "{}", d.span.subject);
    }
}
