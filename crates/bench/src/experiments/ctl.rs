//! `repro ctl` — the live management plane, demonstrated end to end.
//!
//! A scripted out-of-band control session mutates a running PANIC NIC
//! mid-simulation through `panic-ctrl`'s versioned wire protocol:
//!
//! 1. **Armed-but-empty**: a run with a silent control endpoint
//!    serviced at every cycle boundary is byte-identical (metrics and
//!    ledgers) to a run without one.
//! 2. **Subscribe**: telemetry deltas for `tenancy.*` counters stream
//!    back as framed responses while traffic moves.
//! 3. **Add a vNIC under load**: a second tenant appears mid-run and
//!    serves traffic immediately.
//! 4. **Hot-swap the RMT program**: the pipeline gate drains
//!    losslessly, the epoch switches, and the post-swap program
//!    carries traffic — with every conservation identity closing.
//! 5. **Rewrite a rate limit**: commits immediately.
//! 6. **Reject an illegal mutation**: an over-pool credit quota trips
//!    PV603 *online*, with findings byte-identical to what
//!    `panic-lint --json` would report offline for the same spec.
//!
//! Everything is strictly scripted and seed-free: `repro ctl` is
//! deterministic down to the byte, and with an empty script the run
//! is byte-identical to an uncontrolled one.

use packet::message::{Priority, TenantId};
use packet::EngineId;
use panic_core::nic::PanicNic;
use panic_core::programs::chain_program;
use panic_ctrl::{CtrlBody, CtrlEndpoint, CtrlFrame, CtrlRequest, CtrlResponse, PROTO_VERSION};
use sim_core::time::Cycle;
use tenancy::{RateSpec, TenancyConfig, VNicSpec};
use trace::MetricsRegistry;
use workloads::frames::FrameFactory;

use crate::experiments::isolation::chain_nic;
use crate::fmt::TableFmt;

/// The tenant configured at build time.
pub const BASE: TenantId = TenantId(1);
/// The tenant added live through the control wire.
pub const LATE: TenantId = TenantId(2);
/// Build-time tenant injection period (cycles).
const BASE_PERIOD: u64 = 40;
/// Live-added tenant injection period (cycles).
const LATE_PERIOD: u64 = 60;

/// One scripted control exchange, as rendered in the report.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Request sequence number.
    pub seq: u32,
    /// Operation name (`add-vnic`, `swap-program`, …).
    pub op: &'static str,
    /// Cycle the request was submitted.
    pub at: u64,
    /// Rendered outcome (`Ok epoch=N @cycle`, `Rejected PV603`, …).
    pub outcome: String,
}

/// Everything the scripted session observed.
#[derive(Debug)]
pub struct CtlOutcome {
    /// Silent-endpoint run is byte-identical to an uncontrolled one.
    pub armed_empty_identical: bool,
    /// The scripted exchanges in submission order.
    pub exchanges: Vec<Exchange>,
    /// Telemetry frames streamed for the subscription.
    pub telemetry_frames: u64,
    /// Wire deliveries for the live-added tenant.
    pub late_tx_wire: u64,
    /// Wire deliveries for the build-time tenant.
    pub base_tx_wire: u64,
    /// Cycles between the swap request and its epoch switch.
    pub swap_drain_cycles: u64,
    /// Online rejection findings byte-match the offline serializer.
    pub rejection_matches_offline: bool,
    /// Final configuration epoch.
    pub final_epoch: u64,
    /// NIC copy-level + per-tenant books all close after the drain.
    pub books_close: bool,
}

struct Rig {
    nic: PanicNic,
    spec: panic_verify::NicSpec,
    eth: EngineId,
    comp: EngineId,
    factory: FrameFactory,
}

/// The isolation experiment's NIC — MAC uplink, 40-cycle IPSec-class
/// offload, 12-cycle compression, crypto→comp chain — with one
/// build-time tenant.
fn rig() -> Rig {
    let (mut b, eth, comp) = chain_nic();
    b.tenancy(
        TenancyConfig::new(vec![VNicSpec::new(BASE, "base-kvs", 8).credit_quota(32)])
            .shared_credits(64),
    );
    let spec = b.to_spec();
    Rig {
        nic: b.build(),
        spec,
        eth,
        comp,
        factory: FrameFactory::for_nic_port(0),
    }
}

/// Runs `cycles` with the base tenant's load and an *optional* silent
/// endpoint, returning the metrics JSON + ledger rendering.
fn observed_run(cycles: u64, with_endpoint: bool) -> String {
    let mut r = rig();
    let mut ep = with_endpoint.then(|| CtrlEndpoint::new(r.spec.clone()));
    let mut now = Cycle(0);
    for step in 0..cycles {
        if step % BASE_PERIOD == 0 {
            let frame = r.factory.min_frame((step % 50) as u16, 80);
            r.nic.rx_frame(r.eth, frame, BASE, Priority::Normal, now);
        }
        if let Some(ep) = ep.as_mut() {
            ep.service(&mut r.nic, now);
        }
        r.nic.tick(now);
        now = now.next();
        let _ = r.nic.take_wire_tx();
    }
    let mut m = MetricsRegistry::new();
    r.nic.export_metrics(&mut m);
    format!("{}\n{:?}", m.to_json(), r.nic.conservation())
}

/// Runs the full scripted control session over `cycles` cycles.
#[must_use]
pub fn demo(cycles: u64) -> CtlOutcome {
    let armed_empty_identical = observed_run(cycles / 4, false) == observed_run(cycles / 4, true);

    let mut r = rig();
    let mut ep = CtrlEndpoint::new(r.spec.clone());
    let mut exchanges: Vec<Exchange> = Vec::new();
    let mut telemetry_frames = 0u64;
    let mut swap_submitted_at = 0u64;
    let mut swap_drain_cycles = 0u64;
    let mut rejection_matches_offline = false;

    // The script: cycle → (seq, op, request). Spread over the run so
    // every mutation lands on a NIC with traffic in flight.
    let s = cycles / 6;
    let script: Vec<(u64, u32, &'static str, CtrlRequest)> = vec![
        (
            s,
            1,
            "subscribe",
            CtrlRequest::Subscribe {
                prefixes: vec!["tenancy.".into()],
            },
        ),
        (
            2 * s,
            2,
            "add-vnic",
            CtrlRequest::AddVnic(VNicSpec::new(LATE, "late-tenant", 4).credit_quota(16)),
        ),
        (
            3 * s,
            3,
            "swap-program",
            CtrlRequest::SwapProgram(chain_program(&[r.comp], r.eth, Some(5_000))),
        ),
        (
            4 * s,
            4,
            "set-rate",
            CtrlRequest::SetRate {
                tenant: LATE,
                rate: Some(RateSpec::per_cycles(1, 120, 2)),
            },
        ),
        (
            5 * s,
            5,
            "set-credit-quota",
            CtrlRequest::SetCreditQuota {
                tenant: BASE,
                quota: 500,
            },
        ),
    ];

    // What panic-lint would say offline about the illegal step-5 spec:
    // computed against the endpoint's state just before submission,
    // i.e. after the add-vnic, swap, and set-rate commits.
    let offline_expected = |spec: &panic_verify::NicSpec| {
        let mut broken = spec.clone();
        let tc = broken.tenancy.as_mut().expect("tenancy plane on");
        let i = tc
            .vnics
            .iter()
            .position(|v| v.tenant == BASE)
            .expect("base tenant");
        tc.vnics[i].credit_quota = 500;
        panic_verify::verify(&broken)
            .render_json_enveloped("ctl:set-credit-quota", u32::from(PROTO_VERSION))
    };

    let mut script = script.into_iter().peekable();
    let mut pending_op: Vec<(u32, &'static str, u64)> = Vec::new();
    let mut now = Cycle(0);
    let mut late_added_at: Option<u64> = None;
    for step in 0..cycles {
        if step % BASE_PERIOD == 0 {
            let frame = r.factory.min_frame((step % 50) as u16, 80);
            r.nic.rx_frame(r.eth, frame, BASE, Priority::Normal, now);
        }
        if let Some(added) = late_added_at {
            if (step - added) % LATE_PERIOD == 0 {
                let frame = r.factory.min_frame((step % 64) as u16, 443);
                r.nic.rx_frame(r.eth, frame, LATE, Priority::Normal, now);
            }
        }
        if script.peek().is_some_and(|(at, ..)| *at == step) {
            let (_, seq, op, req) = script.next().expect("peeked");
            if op == "set-credit-quota" {
                // Snapshot the offline verdict against the mirror the
                // endpoint will verify this very request with.
                rejection_matches_offline = false;
                pending_op.push((seq, op, step));
                let expected = offline_expected(ep.spec());
                ep.submit(&CtrlFrame::request(0, seq, req).encode());
                ep.service(&mut r.nic, now);
                drain_responses(
                    &mut ep,
                    &mut exchanges,
                    &mut pending_op,
                    &mut telemetry_frames,
                    step,
                    &mut swap_submitted_at,
                    &mut swap_drain_cycles,
                    Some((&expected, &mut rejection_matches_offline)),
                );
            } else {
                if op == "swap-program" {
                    swap_submitted_at = step;
                }
                pending_op.push((seq, op, step));
                ep.submit(&CtrlFrame::request(0, seq, req).encode());
            }
        }
        ep.service(&mut r.nic, now);
        drain_responses(
            &mut ep,
            &mut exchanges,
            &mut pending_op,
            &mut telemetry_frames,
            step,
            &mut swap_submitted_at,
            &mut swap_drain_cycles,
            None,
        );
        if late_added_at.is_none() && r.nic.tenancy().is_some_and(|tn| tn.knows(LATE)) {
            late_added_at = Some(step);
        }
        r.nic.tick(now);
        now = now.next();
        let _ = r.nic.take_wire_tx();
    }

    // Drain to quiescence so every conservation identity can close.
    for _ in 0..100_000 {
        if r.nic.is_quiescent() {
            break;
        }
        ep.service(&mut r.nic, now);
        drain_responses(
            &mut ep,
            &mut exchanges,
            &mut pending_op,
            &mut telemetry_frames,
            now.0,
            &mut swap_submitted_at,
            &mut swap_drain_cycles,
            None,
        );
        r.nic.tick(now);
        now = now.next();
        let _ = r.nic.take_wire_tx();
    }

    let tn = r.nic.tenancy().expect("tenancy plane configured");
    let late_tx_wire = tn.ledger(LATE).map_or(0, |l| l.tx_wire);
    let base_tx_wire = tn.ledger(BASE).map_or(0, |l| l.tx_wire);
    let books_close = r.nic.is_quiescent()
        && r.nic.conservation().holds()
        && [BASE, LATE]
            .iter()
            .all(|&t| r.nic.tenant_conservation(t).is_none_or(|c| c.holds()));

    CtlOutcome {
        armed_empty_identical,
        exchanges,
        telemetry_frames,
        late_tx_wire,
        base_tx_wire,
        swap_drain_cycles,
        rejection_matches_offline,
        final_epoch: ep.epoch(),
        books_close,
    }
}

/// Decodes every queued response, matching non-telemetry frames to
/// the oldest in-flight scripted op.
#[allow(clippy::too_many_arguments)]
fn drain_responses(
    ep: &mut CtrlEndpoint,
    exchanges: &mut Vec<Exchange>,
    pending_op: &mut Vec<(u32, &'static str, u64)>,
    telemetry_frames: &mut u64,
    step: u64,
    swap_submitted_at: &mut u64,
    swap_drain_cycles: &mut u64,
    mut offline: Option<(&String, &mut bool)>,
) {
    while let Some(frame) = ep.poll_decoded() {
        let CtrlBody::Response(resp) = frame.body else {
            continue;
        };
        if let CtrlResponse::Telemetry { .. } = resp {
            *telemetry_frames += 1;
            continue;
        }
        let (seq, op, at) = pending_op.remove(0);
        debug_assert_eq!(seq, frame.seq, "responses arrive in request order");
        let outcome = match resp {
            CtrlResponse::Ok { epoch } => {
                if op == "swap-program" {
                    *swap_drain_cycles = step - *swap_submitted_at;
                }
                format!("Ok epoch={epoch} @{step}")
            }
            CtrlResponse::Rejected { findings } => {
                if let Some((expected, matches)) = offline.take() {
                    *matches = findings == *expected;
                }
                let code = ["PV601", "PV602", "PV603", "PV604"]
                    .iter()
                    .find(|c| findings.contains(*c))
                    .copied()
                    .unwrap_or("PV???");
                format!("Rejected {code}")
            }
            CtrlResponse::Error { message } => format!("Error: {message}"),
            CtrlResponse::Telemetry { .. } => unreachable!("handled above"),
        };
        exchanges.push(Exchange {
            seq,
            op,
            at,
            outcome,
        });
    }
}

/// Regenerates the `repro ctl` report.
#[must_use]
pub fn run(ctx: &mut crate::obs::RunCtx) -> String {
    let cycles = if ctx.quick { 24_000 } else { 120_000 };
    let o = demo(cycles);
    let mut t = TableFmt::new(
        "Live management plane: scripted runtime reconfiguration over the control wire \
         (proto v1)",
        &["Seq", "Op", "Submitted @", "Outcome"],
    );
    for e in &o.exchanges {
        t.row(vec![
            e.seq.to_string(),
            e.op.into(),
            e.at.to_string(),
            e.outcome.clone(),
        ]);
    }
    t.note(format!(
        "Armed-but-empty endpoint byte-identical to uncontrolled run: {}. \
         Telemetry frames streamed for the `tenancy.` subscription: {}. \
         Live-added tenant delivered {} frames to the wire (base tenant {}). \
         Program hot-swap drained the pipeline in {} cycles before its epoch switch. \
         Illegal quota rejected online with findings byte-identical to offline \
         panic-lint: {}. Final epoch {}; all conservation identities close: {}.",
        o.armed_empty_identical,
        o.telemetry_frames,
        o.late_tx_wire,
        o.base_tx_wire,
        o.swap_drain_cycles,
        o.rejection_matches_offline,
        o.final_epoch,
        o.books_close,
    ));
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLES: u64 = 24_000;

    /// The PR's acceptance criteria, in one scripted session.
    #[test]
    fn scripted_session_hits_every_acceptance_criterion() {
        let o = demo(CYCLES);
        assert!(o.armed_empty_identical, "silent endpoint must be a no-op");
        assert!(o.telemetry_frames > 0, "subscription must stream deltas");
        assert!(o.late_tx_wire > 0, "live-added vNIC must serve traffic");
        assert!(o.base_tx_wire > 0);
        assert!(
            o.rejection_matches_offline,
            "online rejection must byte-match the offline serializer"
        );
        assert_eq!(
            o.final_epoch, 3,
            "add + swap + set-rate commit; reject does not"
        );
        assert!(o.books_close, "conservation identities must close");

        let outcomes: Vec<(&str, &str)> = o
            .exchanges
            .iter()
            .map(|e| (e.op, e.outcome.as_str()))
            .collect();
        assert_eq!(outcomes.len(), 5, "{outcomes:?}");
        assert!(outcomes[0].1.starts_with("Ok epoch=0"), "{outcomes:?}");
        assert!(outcomes[1].1.starts_with("Ok epoch=1"), "{outcomes:?}");
        assert!(outcomes[2].1.starts_with("Ok epoch=2"), "{outcomes:?}");
        assert!(outcomes[3].1.starts_with("Ok epoch=3"), "{outcomes:?}");
        assert_eq!(outcomes[4].1, "Rejected PV603", "{outcomes:?}");
    }

    /// Scripted and seed-free: byte-identical across runs.
    #[test]
    fn demo_is_deterministic() {
        let a = demo(CYCLES);
        let b = demo(CYCLES);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
