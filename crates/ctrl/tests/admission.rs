//! Online admission control: an illegal mutation is rejected before
//! it touches the live NIC, and the rejection carries the *same*
//! JSON diagnostic envelope `panic-lint --json` emits offline —
//! format identity between the offline and online paths is asserted
//! byte for byte.

mod common;

use common::{rig, LATE, TENANT};
use packet::TenantId;
use panic_ctrl::{CtrlBody, CtrlEndpoint, CtrlFrame, CtrlRequest, CtrlResponse, PROTO_VERSION};
use sim_core::time::Cycle;
use tenancy::VNicSpec;

/// Runs one request through a fresh endpoint and returns the decoded
/// response.
fn one_shot(req: CtrlRequest) -> (CtrlEndpoint, CtrlFrame) {
    let mut r = rig();
    let mut ep = CtrlEndpoint::new(r.spec.clone());
    ep.submit(&CtrlFrame::request(0, 7, req).encode());
    ep.service(&mut r.nic, Cycle(0));
    let resp = ep.poll_decoded().expect("every request gets a response");
    (ep, resp)
}

/// An over-pool quota rewrite trips PV603 (Error) and must be
/// rejected with findings byte-identical to running the static
/// verifier offline on the same mutated spec.
#[test]
fn illegal_quota_rejected_with_offline_identical_findings() {
    let mut r = rig();
    let mut ep = CtrlEndpoint::new(r.spec.clone());

    // Offline: what panic-lint would say about the post-mutation spec.
    let mut offline = r.spec.clone();
    let tc = offline.tenancy.as_mut().expect("rig has a tenancy plane");
    let i = tc
        .vnics
        .iter()
        .position(|v| v.tenant == TENANT)
        .expect("rig tenant");
    tc.vnics[i].credit_quota = 500;
    let report = panic_verify::verify(&offline);
    assert!(!report.is_clean(), "quota 500 > pool 64 must be an error");
    let expected = report.render_json_enveloped("ctl:set-credit-quota", u32::from(PROTO_VERSION));

    // Online: the same mutation over the wire.
    let req = CtrlRequest::SetCreditQuota {
        tenant: TENANT,
        quota: 500,
    };
    ep.submit(&CtrlFrame::request(0, 1, req).encode());
    ep.service(&mut r.nic, Cycle(0));
    let resp = ep.poll_decoded().expect("a response");
    match resp.body {
        CtrlBody::Response(CtrlResponse::Rejected { findings }) => {
            assert_eq!(
                findings, expected,
                "online and offline must be format-identical"
            );
            assert!(findings.contains("\"proto_version\":1"));
            assert!(findings.contains("PV603"));
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Nothing committed: epoch unmoved, mirror and live NIC untouched.
    assert_eq!(ep.epoch(), 0);
    let mirror_quota = ep.spec().tenancy.as_ref().unwrap().vnics[i].credit_quota;
    assert_eq!(
        mirror_quota, 32,
        "rejected mutation must not touch the mirror"
    );
}

/// Adding a vNIC whose quota exceeds the pool is rejected and the
/// live tenancy plane never learns the tenant.
#[test]
fn illegal_add_vnic_rejected_and_not_committed() {
    let mut r = rig();
    let mut ep = CtrlEndpoint::new(r.spec.clone());
    let bad = VNicSpec::new(LATE, "greedy", 4).credit_quota(10_000);
    ep.submit(&CtrlFrame::request(0, 2, CtrlRequest::AddVnic(bad)).encode());
    ep.service(&mut r.nic, Cycle(0));
    match ep.poll_decoded().expect("a response").body {
        CtrlBody::Response(CtrlResponse::Rejected { findings }) => {
            assert!(findings.contains("PV603"), "{findings}");
            assert!(
                findings.contains("\"scenario\":\"ctl:add-vnic\""),
                "{findings}"
            );
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(
        !r.nic.tenancy().expect("tenancy on").knows(LATE),
        "rejected vNIC must not exist on the live NIC"
    );
    assert_eq!(ep.epoch(), 0);
}

/// A legal parameter rewrite commits immediately: epoch bumps, the
/// mirror follows, and the response is `Ok` with the new epoch.
#[test]
fn legal_rewrite_commits_and_bumps_epoch() {
    let (ep, resp) = one_shot(CtrlRequest::SetWeight {
        tenant: TENANT,
        weight: 3,
    });
    match resp.body {
        CtrlBody::Response(CtrlResponse::Ok { epoch }) => assert_eq!(epoch, 1),
        other => panic!("expected Ok, got {other:?}"),
    }
    assert_eq!(resp.seq, 7, "response echoes the request sequence number");
    assert_eq!(ep.epoch(), 1);
    let v = &ep.spec().tenancy.as_ref().unwrap().vnics[0];
    assert_eq!(v.weight, 3, "mirror tracks the committed mutation");
}

/// Protocol-level failures (unknown tenant, garbage bytes, a frame
/// for another member) come back as `Error`, never a panic and never
/// a commit.
#[test]
fn protocol_errors_are_reported_not_committed() {
    // Unknown tenant.
    let (ep, resp) = one_shot(CtrlRequest::SetWeight {
        tenant: TenantId(999),
        weight: 1,
    });
    match resp.body {
        CtrlBody::Response(CtrlResponse::Error { message }) => {
            assert!(message.contains("no vNIC"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    assert_eq!(ep.epoch(), 0);

    // Garbage bytes: the error response carries seq 0 (unknown).
    let mut r = rig();
    let mut ep = CtrlEndpoint::new(r.spec.clone());
    ep.submit(b"not a frame");
    ep.service(&mut r.nic, Cycle(0));
    let resp = ep.poll_decoded().expect("a response");
    assert_eq!(resp.seq, 0);
    assert!(matches!(
        resp.body,
        CtrlBody::Response(CtrlResponse::Error { .. })
    ));

    // Wrong member.
    ep.submit(
        &CtrlFrame::request(
            5,
            9,
            CtrlRequest::SetWeight {
                tenant: TENANT,
                weight: 1,
            },
        )
        .encode(),
    );
    ep.service(&mut r.nic, Cycle(1));
    match ep.poll_decoded().expect("a response").body {
        CtrlBody::Response(CtrlResponse::Error { message }) => {
            assert!(message.contains("member"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    assert_eq!(ep.epoch(), 0);
}

/// The subscribe opcode acknowledges without an epoch bump and then
/// streams deltas for subscribed counters as traffic moves.
#[test]
fn subscribe_streams_tenancy_deltas() {
    let mut r = rig();
    let mut ep = CtrlEndpoint::new(r.spec.clone());
    ep.submit(
        &CtrlFrame::request(
            0,
            3,
            CtrlRequest::Subscribe {
                prefixes: vec!["tenancy.".into()],
            },
        )
        .encode(),
    );
    let mut now = Cycle(0);
    ep.service(&mut r.nic, now);
    match ep.poll_decoded().expect("ack").body {
        CtrlBody::Response(CtrlResponse::Ok { epoch }) => assert_eq!(epoch, 0),
        other => panic!("expected Ok ack, got {other:?}"),
    }

    let mut saw_tx_delta = false;
    for step in 0..4_000u64 {
        if step % 40 == 0 {
            r.inject(TENANT, step, now);
        }
        now = r.tick(now);
        ep.service(&mut r.nic, now);
        while let Some(frame) = ep.poll_decoded() {
            if let CtrlBody::Response(CtrlResponse::Telemetry { updates }) = frame.body {
                assert!(!updates.is_empty(), "telemetry frames are delta-only");
                for u in &updates {
                    assert!(u.name.starts_with("tenancy."), "filtered to the prefix");
                    if u.name.ends_with("tx_wire") && u.delta > 0 {
                        saw_tx_delta = true;
                    }
                }
            }
        }
    }
    assert!(
        saw_tx_delta,
        "subscribed tx_wire counter must stream deltas"
    );
}

/// The wire carries a vNIC name behind a 16-bit length, but a name
/// that long makes `tenancy.<name>.submitted` too long for a telemetry
/// frame — the parent commit admitted it and then panicked encoding
/// the next frame. The decoder refuses it with a typed error; the
/// subscription keeps streaming.
#[test]
fn oversized_vnic_name_is_refused_at_decode_and_telemetry_survives() {
    let mut r = rig();
    let mut ep = CtrlEndpoint::new(r.spec.clone());
    let subscribe = CtrlRequest::Subscribe {
        prefixes: vec!["tenancy.".into()],
    };
    ep.submit(&CtrlFrame::request(0, 1, subscribe).encode());
    let huge = VNicSpec::new(LATE, "n".repeat(65_520), 4).credit_quota(16);
    ep.submit(&CtrlFrame::request(0, 2, CtrlRequest::AddVnic(huge)).encode());

    let mut now = Cycle(0);
    let mut responses = Vec::new();
    for step in 0..400 {
        if step % 40 == 0 {
            r.inject(TENANT, step, now);
        }
        ep.service(&mut r.nic, now);
        while let Some(frame) = ep.poll_decoded() {
            responses.push(frame);
        }
        now = r.tick(now);
    }
    let error = responses
        .iter()
        .find_map(|f| match &f.body {
            CtrlBody::Response(CtrlResponse::Error { message }) => Some(message.as_str()),
            _ => None,
        })
        .expect("the oversized frame is answered with an error");
    assert_eq!(error, "bad payload: name too long");
    assert_eq!(ep.epoch(), 0, "nothing committed");
    assert!(!r.nic.tenancy().expect("tenancy on").knows(LATE));
    let telemetry = responses
        .iter()
        .filter(|f| matches!(f.body, CtrlBody::Response(CtrlResponse::Telemetry { .. })))
        .count();
    assert!(telemetry > 1, "the subscription kept streaming");
}

/// A name exactly at the limit is legal: admitted, and its counters
/// stream (every frame the endpoint emits decodes again).
#[test]
fn vnic_name_at_the_limit_is_admitted_and_streams() {
    let mut r = rig();
    let mut ep = CtrlEndpoint::new(r.spec.clone());
    let name = "n".repeat(VNicSpec::MAX_NAME_LEN);
    let subscribe = CtrlRequest::Subscribe {
        prefixes: vec!["tenancy.n".into()],
    };
    ep.submit(&CtrlFrame::request(0, 1, subscribe).encode());
    let vnic = VNicSpec::new(LATE, name.clone(), 4).credit_quota(16);
    ep.submit(&CtrlFrame::request(0, 2, CtrlRequest::AddVnic(vnic)).encode());
    ep.service(&mut r.nic, Cycle(0));
    let mut streamed = Vec::new();
    while let Some(frame) = ep.poll_decoded() {
        if let CtrlBody::Response(CtrlResponse::Telemetry { updates }) = frame.body {
            streamed.extend(updates.into_iter().map(|u| u.name));
        }
    }
    assert_eq!(ep.epoch(), 1, "the add committed");
    assert!(streamed.contains(&format!("tenancy.{name}.submitted")));
}

/// The same bound offline and online: a spec that already carries an
/// over-long name (built in-process, where no decoder stands guard) is
/// denied by PV605, and the online rejection is byte-identical to what
/// `panic-lint --json` says about that spec.
#[test]
fn overlong_name_in_the_spec_is_denied_online_as_offline() {
    let mut r = rig();
    let mut spec = r.spec.clone();
    let tc = spec.tenancy.as_mut().expect("rig has a tenancy plane");
    tc.vnics[0].name = "n".repeat(VNicSpec::MAX_NAME_LEN + 1);
    let mut ep = CtrlEndpoint::new(spec.clone());

    let mut offline = spec;
    offline.tenancy.as_mut().unwrap().vnics[0].weight = 3;
    let report = panic_verify::verify(&offline);
    assert!(!report.is_clean());
    let expected = report.render_json_enveloped("ctl:set-weight", u32::from(PROTO_VERSION));

    let req = CtrlRequest::SetWeight {
        tenant: TENANT,
        weight: 3,
    };
    ep.submit(&CtrlFrame::request(0, 1, req).encode());
    ep.service(&mut r.nic, Cycle(0));
    match ep.poll_decoded().expect("a response").body {
        CtrlBody::Response(CtrlResponse::Rejected { findings }) => {
            assert!(findings.contains("PV605"), "{findings}");
            assert_eq!(findings, expected);
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(ep.epoch(), 0);
}
