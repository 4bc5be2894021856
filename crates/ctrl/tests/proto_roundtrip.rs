//! Protocol robustness properties (the CI satellite): any valid
//! control frame survives an encode → decode → re-encode round trip
//! byte-identically, every strict prefix of a valid frame is a decode
//! error, and arbitrary single-byte corruption never panics the
//! decoder — it returns `Ok` or `Err`, nothing else.

use packet::TenantId;
use panic_core::programs::chain_program;
use panic_ctrl::{CtrlBody, CtrlFrame, CtrlRequest, CtrlResponse, DecodeError};
use proptest::prelude::*;
use tenancy::{RateSpec, VNicSpec};

/// Encode → decode → re-encode must reproduce the input bytes
/// ([`CtrlFrame`] carries an [`rmt::RmtProgram`], which has no
/// `PartialEq`, so byte identity *is* the equality we assert).
fn assert_roundtrip(frame: &CtrlFrame) {
    let bytes = frame.encode();
    let back = CtrlFrame::decode(&bytes).expect("valid frame must decode");
    assert_eq!(back.member, frame.member);
    assert_eq!(back.seq, frame.seq);
    assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
}

/// A frame with every codec in play: a vNIC payload (strings, option
/// rate, entitlement and chain lists) is the richest request short of
/// a full program. The name is `t<tenant>` padded with `-` to
/// `name_len` bytes (never shorter than itself).
fn named_vnic_frame(member: u16, seq: u32, tenant: u16, name_len: usize) -> CtrlFrame {
    let vnic = VNicSpec::new(
        TenantId(tenant),
        format!("{:-<name_len$}", format!("t{tenant}")),
        3,
    )
    .rate(RateSpec::per_cycles(1, 7, 4))
    .credit_quota(9)
    .entitled_to([packet::EngineId(1), packet::EngineId(2)])
    .chain([packet::EngineId(1)]);
    CtrlFrame::request(member, seq, CtrlRequest::AddVnic(vnic))
}

/// [`named_vnic_frame`] with a name length drawn from the tenant id:
/// short, one under the limit, and exactly at it.
fn rich_vnic_frame(member: u16, seq: u32, tenant: u16) -> CtrlFrame {
    let name_len = [0, VNicSpec::MAX_NAME_LEN - 1, VNicSpec::MAX_NAME_LEN][usize::from(tenant) % 3];
    named_vnic_frame(member, seq, tenant, name_len)
}

/// A frame exercising the program codec end to end.
fn program_frame() -> CtrlFrame {
    let program = chain_program(
        &[packet::EngineId(1), packet::EngineId(2)],
        packet::EngineId(0),
        Some(5_000),
    );
    CtrlFrame::request(3, 77, CtrlRequest::SwapProgram(program))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any parameter-rewrite request round-trips for any header and
    /// payload values, including the extremes of every integer field.
    #[test]
    fn param_requests_roundtrip(
        member in any::<u16>(),
        seq in any::<u32>(),
        tenant in any::<u16>(),
        weight in any::<u64>(),
        quota in any::<u64>(),
        pick in 0u8..4,
    ) {
        let tenant = TenantId(tenant);
        let req = match pick {
            0 => CtrlRequest::RemoveVnic { tenant },
            1 => CtrlRequest::SetWeight { tenant, weight },
            2 => CtrlRequest::SetCreditQuota { tenant, quota },
            _ => CtrlRequest::Subscribe {
                prefixes: vec![format!("tenancy.{weight}"), "nic.".into()],
            },
        };
        assert_roundtrip(&CtrlFrame::request(member, seq, req));
    }

    /// Rate limits round-trip across the whole nonzero component
    /// space, shaped and unshaped.
    #[test]
    fn rate_requests_roundtrip(
        member in any::<u16>(),
        seq in any::<u32>(),
        tenant in any::<u16>(),
        num in 1u64..=u64::MAX,
        den in 1u64..=u64::MAX,
        burst in 1u64..=u64::MAX,
        shaped in any::<bool>(),
    ) {
        let rate = shaped.then_some(RateSpec { num, den, burst });
        let req = CtrlRequest::SetRate { tenant: TenantId(tenant), rate };
        assert_roundtrip(&CtrlFrame::request(member, seq, req));
    }

    /// Responses round-trip, including multi-line rejection findings
    /// and telemetry batches.
    #[test]
    fn responses_roundtrip(
        member in any::<u16>(),
        seq in any::<u32>(),
        epoch in any::<u64>(),
        value in any::<u64>(),
        pick in 0u8..3,
    ) {
        let resp = match pick {
            0 => CtrlResponse::Ok { epoch },
            1 => CtrlResponse::Rejected {
                findings: format!("{{\"errors\":1,\"x\":{epoch}}}\n\"quoted\\slash\""),
            },
            _ => CtrlResponse::Telemetry {
                updates: vec![panic_ctrl::MetricUpdate {
                    name: format!("tenancy.t{member}.tx_wire"),
                    value,
                    delta: value / 2,
                }],
            },
        };
        assert_roundtrip(&CtrlFrame::response(member, seq, resp));
    }

    /// The vNIC payload (the richest non-program codec) round-trips
    /// and its decoded fields match the originals.
    #[test]
    fn vnic_requests_roundtrip(
        member in any::<u16>(),
        seq in any::<u32>(),
        tenant in any::<u16>(),
    ) {
        let frame = rich_vnic_frame(member, seq, tenant);
        let bytes = frame.encode();
        let back = CtrlFrame::decode(&bytes).expect("valid frame must decode");
        match &back.body {
            CtrlBody::Request(CtrlRequest::AddVnic(v)) => {
                assert_eq!(v.tenant, TenantId(tenant));
                assert_eq!(v.credit_quota, 9);
                assert_eq!(v.rate, Some(RateSpec::per_cycles(1, 7, 4)));
            }
            other => panic!("decoded to the wrong body: {other:?}"),
        }
        assert_eq!(back.encode(), bytes);
    }

    /// Names up to the limit decode; one byte more, up to the most a
    /// 16-bit length can announce, is a typed payload error.
    #[test]
    fn vnic_name_limit_is_exact(
        tenant in any::<u16>(),
        under in 0usize..=VNicSpec::MAX_NAME_LEN,
        over in VNicSpec::MAX_NAME_LEN + 1..=usize::from(u16::MAX),
    ) {
        assert_roundtrip(&named_vnic_frame(1, 2, tenant, under));
        let bytes = named_vnic_frame(1, 2, tenant, over).encode();
        assert_eq!(
            CtrlFrame::decode(&bytes).unwrap_err(),
            DecodeError::BadPayload("name too long")
        );
    }

    /// Every strict prefix of a valid frame is an error: the header's
    /// length field must match the remaining bytes exactly, so no cut
    /// point can silently decode.
    #[test]
    fn truncation_always_errors(
        tenant in any::<u16>(),
        frac in 0u32..1000,
    ) {
        let bytes = rich_vnic_frame(1, 2, tenant).encode();
        let cut = (frac as usize * (bytes.len() - 1)) / 1000;
        assert!(
            CtrlFrame::decode(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not decode",
            bytes.len()
        );
    }

    /// Single-byte corruption anywhere in a frame — header, string
    /// lengths, program structure — never panics the decoder.
    #[test]
    fn corruption_never_panics(
        tenant in any::<u16>(),
        pos in 0u32..10_000,
        delta in 1u8..=255,
        which in any::<bool>(),
    ) {
        let mut bytes = if which {
            program_frame().encode()
        } else {
            rich_vnic_frame(4, 9, tenant).encode()
        };
        let i = pos as usize % bytes.len();
        bytes[i] = bytes[i].wrapping_add(delta);
        // Ok or Err are both acceptable; panicking is the only failure.
        let _ = CtrlFrame::decode(&bytes);
    }

    /// Appending trailing garbage to a valid frame is always rejected.
    #[test]
    fn trailing_bytes_always_error(
        tenant in any::<u16>(),
        extra in collection::vec(any::<u8>(), 1..16),
    ) {
        let mut bytes = rich_vnic_frame(0, 1, tenant).encode();
        bytes.extend_from_slice(&extra);
        assert!(CtrlFrame::decode(&bytes).is_err());
    }
}
