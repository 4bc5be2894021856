//! The NIC-side control endpoint: mutation execution with drain +
//! epoch-switch semantics, online admission control, and telemetry
//! streaming.
//!
//! # Epochs and drains
//!
//! The endpoint counts configuration *epochs*: every committed
//! mutation advances the epoch by one, and the `Ok` response carries
//! the new epoch. Parameter rewrites (rate / weight / quota) and vNIC
//! addition commit immediately — they only change *future* scheduling
//! decisions, so no in-flight state can observe a torn configuration.
//! Two mutations need a drain before their epoch switches:
//!
//! * **Program swap** shuts the pipeline gate (portals stop feeding
//!   the RMT pipeline; traffic backpressures losslessly in the NoC
//!   ejection buffers), waits until the pipeline is empty, swaps and
//!   re-lowers the program, then reopens the gate.
//! * **vNIC removal** stops ingress admission immediately and waits
//!   until the vNIC's queue is empty and its last in-flight credit
//!   returned before deleting the tenant's state.
//!
//! In both cases every conservation identity (NIC copy-level,
//! per-tenant, fleet) closes on both sides of the epoch switch — the
//! drain guarantees no copy is mid-flight through the mutated
//! structure at the instant it changes.
//!
//! # Admission control
//!
//! Before committing anything the endpoint applies the mutation to a
//! *mirror* of the NIC's spec and runs the full `panic-verify` pass
//! over the result. A spec with errors is rejected: the response
//! carries the findings in exactly the JSON envelope `panic-lint
//! --json` emits offline, so online and offline rejections are
//! format-identical.
//!
//! # Byte-identity
//!
//! An endpoint with no queued frames, no pending drain, and no
//! subscriptions does nothing to the NIC — a run with a silent
//! endpoint serviced every cycle is byte-identical to a run without
//! one (asserted by `tests/armed_empty.rs`).

use std::collections::VecDeque;

use packet::TenantId;
use panic_core::PanicNic;
use panic_verify::NicSpec;
use rmt::RmtProgram;
use sim_core::Cycle;
use tenancy::{TenancyConfig, VNicSpec};

use crate::proto::{self, CtrlBody, CtrlFrame, CtrlRequest, CtrlResponse};
use crate::telemetry::Telemetry;

/// A mutation waiting for its drain before the epoch can switch.
#[derive(Debug)]
enum Pending {
    /// Pipeline gate is shut; swap when the pipeline empties.
    Swap {
        seq: u32,
        program: RmtProgram,
        candidate: Box<NicSpec>,
    },
    /// vNIC is draining; delete when queue and credits settle.
    Remove {
        seq: u32,
        tenant: TenantId,
        candidate: Box<NicSpec>,
    },
}

/// The out-of-band management endpoint for one [`PanicNic`].
///
/// Drive it by queueing encoded frames with
/// [`CtrlEndpoint::submit`] and calling [`CtrlEndpoint::service`] at
/// a cycle boundary (between `tick`s); collect responses with
/// [`CtrlEndpoint::poll_response`].
#[derive(Debug)]
pub struct CtrlEndpoint {
    /// Mirror of the live NIC's spec, kept in lock-step with every
    /// committed mutation; admission verifies mutations against it.
    spec: NicSpec,
    /// Fabric member index this endpoint answers for (0 standalone).
    member: u16,
    /// Configuration epoch: bumped once per committed mutation.
    epoch: u64,
    inbox: VecDeque<Vec<u8>>,
    outbox: VecDeque<Vec<u8>>,
    pending: Option<Pending>,
    /// The active subscription and its change cursor.
    telemetry: Telemetry,
}

impl CtrlEndpoint {
    /// An endpoint for a NIC whose build-time configuration is `spec`
    /// (take it from `NicBuilder::to_spec()` before building).
    #[must_use]
    pub fn new(spec: NicSpec) -> CtrlEndpoint {
        CtrlEndpoint::for_member(spec, 0)
    }

    /// An endpoint answering for fabric member `member`.
    #[must_use]
    pub fn for_member(spec: NicSpec, member: u16) -> CtrlEndpoint {
        CtrlEndpoint {
            spec,
            member,
            epoch: 0,
            inbox: VecDeque::new(),
            outbox: VecDeque::new(),
            pending: None,
            telemetry: Telemetry::default(),
        }
    }

    /// The current configuration epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The endpoint's mirror of the NIC spec (what admission verifies
    /// mutations against).
    #[must_use]
    pub fn spec(&self) -> &NicSpec {
        &self.spec
    }

    /// True when servicing this endpoint is a guaranteed no-op: no
    /// queued frames, no drain in progress, no subscriptions, no
    /// unread responses.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.inbox.is_empty()
            && self.outbox.is_empty()
            && self.pending.is_none()
            && self.telemetry.is_off()
    }

    /// Queues one encoded frame for the next [`CtrlEndpoint::service`].
    pub fn submit(&mut self, frame: &[u8]) {
        self.inbox.push_back(frame.to_vec());
    }

    /// Pops the oldest unread response frame.
    pub fn poll_response(&mut self) -> Option<Vec<u8>> {
        self.outbox.pop_front()
    }

    /// Decodes and pops the oldest unread response.
    ///
    /// # Panics
    /// Panics if the endpoint emitted a malformed frame (a bug, not a
    /// wire condition — responses are locally encoded).
    pub fn poll_decoded(&mut self) -> Option<CtrlFrame> {
        self.poll_response()
            .map(|raw| CtrlFrame::decode(&raw).expect("endpoint emitted a malformed frame"))
    }

    fn respond(&mut self, seq: u32, resp: CtrlResponse) {
        self.outbox
            .push_back(CtrlFrame::response(self.member, seq, resp).encode());
    }

    /// One management-plane step, run at a cycle boundary: finalize a
    /// drained mutation, process queued requests (until one starts a
    /// drain), and stream telemetry deltas. A guaranteed no-op when
    /// [`CtrlEndpoint::idle`]. `_now` is the boundary's cycle; nothing
    /// the endpoint does today depends on it.
    pub fn service(&mut self, nic: &mut PanicNic, _now: Cycle) {
        self.finalize_pending(nic);
        while self.pending.is_none() {
            let Some(raw) = self.inbox.pop_front() else {
                break;
            };
            self.process_frame(nic, &raw);
        }
        self.stream_telemetry(nic);
    }

    /// Completes a drain-gated mutation whose drain condition now
    /// holds, switching the epoch.
    fn finalize_pending(&mut self, nic: &mut PanicNic) {
        match self.pending.take() {
            None => {}
            Some(Pending::Swap {
                seq,
                program,
                candidate,
            }) => {
                if nic.pipeline_drained() {
                    nic.swap_program(program);
                    nic.set_pipeline_gate(false);
                    self.spec = *candidate;
                    self.epoch += 1;
                    self.respond(seq, CtrlResponse::Ok { epoch: self.epoch });
                } else {
                    self.pending = Some(Pending::Swap {
                        seq,
                        program,
                        candidate,
                    });
                }
            }
            Some(Pending::Remove {
                seq,
                tenant,
                candidate,
            }) => {
                let drained = nic.tenancy().is_some_and(|tn| tn.removal_drained(tenant));
                if drained {
                    let removed = nic
                        .tenancy_mut()
                        .expect("tenancy present while removal pending")
                        .finalize_remove(tenant);
                    debug_assert!(removed, "drained removal must finalize");
                    self.spec = *candidate;
                    self.epoch += 1;
                    self.respond(seq, CtrlResponse::Ok { epoch: self.epoch });
                } else {
                    self.pending = Some(Pending::Remove {
                        seq,
                        tenant,
                        candidate,
                    });
                }
            }
        }
    }

    fn process_frame(&mut self, nic: &mut PanicNic, raw: &[u8]) {
        let frame = match CtrlFrame::decode(raw) {
            Ok(f) => f,
            Err(e) => {
                // The header may itself be the corrupt part, so no
                // sequence number can be echoed; 0 marks "unknown".
                self.respond(
                    0,
                    CtrlResponse::Error {
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let seq = frame.seq;
        if frame.member != self.member {
            self.respond(
                seq,
                CtrlResponse::Error {
                    message: format!(
                        "frame for member {} delivered to member {}",
                        frame.member, self.member
                    ),
                },
            );
            return;
        }
        let req = match frame.body {
            CtrlBody::Request(req) => req,
            CtrlBody::Response(_) => {
                self.respond(
                    seq,
                    CtrlResponse::Error {
                        message: "unexpected response frame on the request wire".into(),
                    },
                );
                return;
            }
        };

        // Subscriptions carry no admission question.
        if let CtrlRequest::Subscribe { prefixes } = req {
            self.telemetry.subscribe(prefixes);
            self.respond(seq, CtrlResponse::Ok { epoch: self.epoch });
            return;
        }

        // Admission control: apply the mutation to a copy of the
        // mirror and run the full static verifier over the result.
        let mut candidate = self.spec.clone();
        if let Err(message) = apply_to_spec(&mut candidate, &req) {
            self.respond(seq, CtrlResponse::Error { message });
            return;
        }
        let report = panic_verify::verify(&candidate);
        if !report.is_clean() {
            let findings = report.render_json_enveloped(
                &format!("ctl:{}", req.op_name()),
                u32::from(crate::PROTO_VERSION),
            );
            self.respond(seq, CtrlResponse::Rejected { findings });
            return;
        }

        // Commit.
        match req {
            CtrlRequest::AddVnic(vnic) => {
                if !nic.ctrl_add_vnic(vnic) {
                    self.respond(
                        seq,
                        CtrlResponse::Error {
                            message: "tenant already has a vNIC".into(),
                        },
                    );
                    return;
                }
                self.commit_now(candidate, seq);
            }
            CtrlRequest::RemoveVnic { tenant } => {
                let began = nic.tenancy_mut().is_some_and(|tn| tn.begin_remove(tenant));
                if !began {
                    self.respond(
                        seq,
                        CtrlResponse::Error {
                            message: format!("tenant {} has no vNIC", tenant.0),
                        },
                    );
                    return;
                }
                self.pending = Some(Pending::Remove {
                    seq,
                    tenant,
                    candidate: Box::new(candidate),
                });
            }
            CtrlRequest::SetRate { tenant, rate } => {
                let ok = nic
                    .tenancy_mut()
                    .is_some_and(|tn| tn.set_rate(tenant, rate));
                self.commit_param(ok, tenant, candidate, seq);
            }
            CtrlRequest::SetWeight { tenant, weight } => {
                let ok = nic
                    .tenancy_mut()
                    .is_some_and(|tn| tn.set_weight(tenant, weight));
                self.commit_param(ok, tenant, candidate, seq);
            }
            CtrlRequest::SetCreditQuota { tenant, quota } => {
                let ok = nic
                    .tenancy_mut()
                    .is_some_and(|tn| tn.set_credit_quota(tenant, quota));
                self.commit_param(ok, tenant, candidate, seq);
            }
            CtrlRequest::SwapProgram(program) => {
                nic.set_pipeline_gate(true);
                self.pending = Some(Pending::Swap {
                    seq,
                    program,
                    candidate: Box::new(candidate),
                });
            }
            CtrlRequest::Subscribe { .. } => unreachable!("handled above"),
        }
    }

    /// Commits an immediate (non-draining) mutation: mirror update,
    /// epoch switch, `Ok`.
    fn commit_now(&mut self, candidate: NicSpec, seq: u32) {
        self.spec = candidate;
        self.epoch += 1;
        self.respond(seq, CtrlResponse::Ok { epoch: self.epoch });
    }

    fn commit_param(&mut self, applied: bool, tenant: TenantId, candidate: NicSpec, seq: u32) {
        if applied {
            self.commit_now(candidate, seq);
        } else {
            // apply_to_spec validated against the mirror, so the only
            // way here is a mirror/live divergence — report, don't
            // panic, the wire is untrusted.
            self.respond(
                seq,
                CtrlResponse::Error {
                    message: format!("tenant {} has no vNIC", tenant.0),
                },
            );
        }
    }

    /// Streams counter deltas for the active subscription: one
    /// telemetry frame per service step in which at least one
    /// subscribed counter changed, updates in counter-name order (see
    /// [`crate::telemetry`]). A step without a change emits nothing and
    /// allocates nothing.
    fn stream_telemetry(&mut self, nic: &PanicNic) {
        if self.telemetry.is_off() {
            return;
        }
        if let Some(updates) = self.telemetry.step(nic) {
            self.outbox
                .extend(proto::encode_telemetry(self.member, updates));
        }
    }
}

/// Applies `req` to a spec mirror, or explains why it cannot apply
/// (protocol-level errors — unknown tenant, duplicate vNIC — as
/// opposed to admission rejections, which the verifier produces).
fn apply_to_spec(spec: &mut NicSpec, req: &CtrlRequest) -> Result<(), String> {
    let find_vnic = |tc: &TenancyConfig, tenant: TenantId| -> Result<usize, String> {
        tc.vnics
            .iter()
            .position(|v| v.tenant == tenant)
            .ok_or_else(|| format!("tenant {} has no vNIC", tenant.0))
    };
    match req {
        CtrlRequest::AddVnic(vnic) => {
            let tc = spec
                .tenancy
                .get_or_insert_with(|| TenancyConfig::new(Vec::new()));
            if tc.vnics.iter().any(|v| v.tenant == vnic.tenant) {
                return Err("tenant already has a vNIC".into());
            }
            tc.vnics.push(VNicSpec::clone(vnic));
        }
        CtrlRequest::RemoveVnic { tenant } => {
            let tc = tenancy_of(spec)?;
            find_vnic(tc, *tenant)?;
            tc.vnics.retain(|v| v.tenant != *tenant);
        }
        CtrlRequest::SetRate { tenant, rate } => {
            let tc = tenancy_of(spec)?;
            let i = find_vnic(tc, *tenant)?;
            tc.vnics[i].rate = *rate;
        }
        CtrlRequest::SetWeight { tenant, weight } => {
            let tc = tenancy_of(spec)?;
            let i = find_vnic(tc, *tenant)?;
            tc.vnics[i].weight = *weight;
        }
        CtrlRequest::SetCreditQuota { tenant, quota } => {
            let tc = tenancy_of(spec)?;
            let i = find_vnic(tc, *tenant)?;
            tc.vnics[i].credit_quota = *quota;
        }
        CtrlRequest::SwapProgram(program) => {
            spec.program = Some(program.clone());
        }
        CtrlRequest::Subscribe { .. } => unreachable!("subscriptions bypass the spec mirror"),
    }
    Ok(())
}

fn tenancy_of(spec: &mut NicSpec) -> Result<&mut TenancyConfig, String> {
    spec.tenancy
        .as_mut()
        .ok_or_else(|| "tenancy plane is off (add a vNIC first)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rig::{self as common, LATE};

    fn submit(ep: &mut CtrlEndpoint, seq: u32, req: CtrlRequest) {
        ep.submit(&CtrlFrame::request(0, seq, req).encode());
    }

    /// Add/remove churn under fresh names must not grow the cursor's
    /// memory: once a removal finalises, the vNIC's counters are gone
    /// from it.
    #[test]
    fn telemetry_memory_returns_to_its_size_after_a_removal() {
        let mut r = common::rig();
        let mut ep = CtrlEndpoint::new(r.spec.clone());
        let mut now = Cycle(0);
        submit(
            &mut ep,
            1,
            CtrlRequest::Subscribe {
                prefixes: vec!["tenancy.".into()],
            },
        );
        ep.service(&mut r.nic, now);
        let before = ep.telemetry.remembered();
        assert!(before > 0, "the build-time vNIC is remembered");

        for round in 0..5u32 {
            let vnic = VNicSpec::new(LATE, format!("churn-{round}"), 4).credit_quota(16);
            submit(&mut ep, 2 + 2 * round, CtrlRequest::AddVnic(vnic));
            for step in 0..300 {
                if step % 40 == 0 {
                    r.inject(LATE, step, now);
                }
                ep.service(&mut r.nic, now);
                now = r.tick(now);
            }
            assert!(ep.telemetry.remembered() > before);
            submit(
                &mut ep,
                3 + 2 * round,
                CtrlRequest::RemoveVnic { tenant: LATE },
            );
            for _ in 0..5_000 {
                ep.service(&mut r.nic, now);
                now = r.tick(now);
            }
            assert!(ep.pending.is_none(), "the removal finalised");
            assert_eq!(ep.telemetry.remembered(), before, "round {round}");
        }
    }
}
