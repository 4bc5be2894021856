//! Versioned binary control wire protocol.
//!
//! Every message is one *frame*: a fixed 16-byte little-endian header
//! followed by an opcode-specific payload.
//!
//! ```text
//! offset  size  field
//!      0     4  magic        b"PNIC"
//!      4     1  version      PROTO_VERSION (1)
//!      5     1  opcode       request 0x01..=0x07, response 0x81..=0x84
//!      6     2  member       fabric member index (0 on a lone NIC)
//!      8     4  seq          caller-chosen sequence number, echoed back
//!     12     4  payload_len  bytes of payload following the header
//! ```
//!
//! Payloads are typed per opcode (see [`CtrlRequest`] /
//! [`CtrlResponse`]). Strings are length-prefixed UTF-8; every count
//! and every key shape is bounds-checked at decode, so a malformed or
//! truncated frame yields a [`DecodeError`] — never a panic and never
//! a value that a downstream constructor (e.g. `Table::insert`, which
//! panics on key-shape mismatches) could choke on. In particular the
//! decoder derives each table entry's key shape from the table's own
//! [`MatchKind`], making arity and shape mismatches unrepresentable
//! on the wire, and rejects zero-valued [`RateSpec`] components that
//! `RateSpec::per_cycles` would panic on. Names the NIC later embeds
//! in counter names (vNIC and table names; action and program names
//! share the rule) are bounded at [`MAX_NAME_LEN`] bytes, so a counter
//! name always fits a telemetry frame's 16-bit string length.

use packet::{Field, TenantId};
use rmt::action::{priority_code, priority_from_code};
use rmt::parse::Layer;
use rmt::{
    Action, MatchKey, MatchKind, ParseGraph, Primitive, ProgramBuilder, RmtProgram, SlackExpr,
    Table, TableEntry,
};
use tenancy::{RateSpec, VNicSpec};

/// Frame magic: the first four bytes of every control message.
pub const MAGIC: [u8; 4] = *b"PNIC";

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 16;

/// Longest vNIC, table, action or program name the decoder accepts, in
/// bytes — [`VNicSpec::MAX_NAME_LEN`], which lint PV605 enforces
/// offline.
pub const MAX_NAME_LEN: usize = VNicSpec::MAX_NAME_LEN;

const LAYERS: [Layer; 6] = [
    Layer::Ethernet,
    Layer::Ipv4,
    Layer::Udp,
    Layer::Tcp,
    Layer::Esp,
    Layer::Kvs,
];

/// Why a byte buffer failed to decode as a control frame.
///
/// Decoding malformed input is an *expected* event on a management
/// wire — every failure is reported through this type; the decoder
/// never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced structure did.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic,
    /// The version byte is one this decoder does not speak.
    BadVersion(u8),
    /// The opcode byte names no known request or response.
    BadOpcode(u8),
    /// A payload field held a value outside its legal range.
    BadPayload(&'static str),
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadPayload(why) => write!(f, "bad payload: {why}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A management request: something a client asks the NIC to do.
#[derive(Debug, Clone)]
pub enum CtrlRequest {
    /// Add a tenant vNIC to the live tenancy plane (opcode `0x01`).
    AddVnic(VNicSpec),
    /// Drain and remove a tenant vNIC (opcode `0x02`).
    RemoveVnic {
        /// Tenant whose vNIC is removed.
        tenant: TenantId,
    },
    /// Replace a tenant's token-bucket rate limit (opcode `0x03`).
    /// `None` removes shaping entirely.
    SetRate {
        /// Tenant whose limit changes.
        tenant: TenantId,
        /// The new limit, or `None` for unshaped.
        rate: Option<RateSpec>,
    },
    /// Rewrite a tenant's fair-share weight (opcode `0x04`).
    SetWeight {
        /// Tenant whose weight changes.
        tenant: TenantId,
        /// New DRR weight; must be non-zero unless other vNICs carry
        /// weight (enforced by admission, not the wire).
        weight: u64,
    },
    /// Rewrite a tenant's credit quota (opcode `0x05`).
    SetCreditQuota {
        /// Tenant whose quota changes.
        tenant: TenantId,
        /// New per-tenant credit quota.
        quota: u64,
    },
    /// Hot-swap the RMT pipeline program after a drain (opcode `0x06`).
    SwapProgram(RmtProgram),
    /// Subscribe to framed metric deltas (opcode `0x07`). Prefixes
    /// select counters, e.g. `tenancy.`, `nic.`, `perf.layer.`; an
    /// empty list unsubscribes.
    Subscribe {
        /// Counter-name prefixes to stream.
        prefixes: Vec<String>,
    },
}

impl CtrlRequest {
    /// The opcode byte this request encodes as.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            CtrlRequest::AddVnic(_) => 0x01,
            CtrlRequest::RemoveVnic { .. } => 0x02,
            CtrlRequest::SetRate { .. } => 0x03,
            CtrlRequest::SetWeight { .. } => 0x04,
            CtrlRequest::SetCreditQuota { .. } => 0x05,
            CtrlRequest::SwapProgram(_) => 0x06,
            CtrlRequest::Subscribe { .. } => 0x07,
        }
    }

    /// Short human name of the operation, used as the diagnostic
    /// scenario id (`ctl:<name>`) on rejection.
    #[must_use]
    pub fn op_name(&self) -> &'static str {
        match self {
            CtrlRequest::AddVnic(_) => "add-vnic",
            CtrlRequest::RemoveVnic { .. } => "remove-vnic",
            CtrlRequest::SetRate { .. } => "set-rate",
            CtrlRequest::SetWeight { .. } => "set-weight",
            CtrlRequest::SetCreditQuota { .. } => "set-credit-quota",
            CtrlRequest::SwapProgram(_) => "swap-program",
            CtrlRequest::Subscribe { .. } => "subscribe",
        }
    }
}

/// One streamed counter sample inside a telemetry frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricUpdate {
    /// Full counter name (e.g. `tenancy.victim-kvs.released`).
    pub name: String,
    /// Absolute counter value at the sample cycle.
    pub value: u64,
    /// Increase since the value last streamed for this counter,
    /// saturating at zero (a gauge that fell reports `0`).
    pub delta: u64,
}

/// A management response: the NIC's answer to a request, or a pushed
/// telemetry frame.
#[derive(Debug, Clone)]
pub enum CtrlResponse {
    /// The mutation committed; the NIC is now in `epoch` (opcode
    /// `0x81`).
    Ok {
        /// Configuration epoch after the commit.
        epoch: u64,
    },
    /// Admission control rejected the mutation (opcode `0x82`). The
    /// payload carries the `panic-verify` findings in exactly the JSON
    /// envelope `panic-lint --json` emits offline.
    Rejected {
        /// JSON diagnostics envelope.
        findings: String,
    },
    /// The request could not be interpreted or targeted a nonexistent
    /// object (opcode `0x83`).
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Pushed metric deltas for an active subscription (opcode
    /// `0x84`).
    Telemetry {
        /// Counters that changed since the last telemetry frame.
        updates: Vec<MetricUpdate>,
    },
}

impl CtrlResponse {
    /// The opcode byte this response encodes as.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            CtrlResponse::Ok { .. } => 0x81,
            CtrlResponse::Rejected { .. } => 0x82,
            CtrlResponse::Error { .. } => 0x83,
            CtrlResponse::Telemetry { .. } => 0x84,
        }
    }
}

/// Direction-tagged frame body.
#[derive(Debug, Clone)]
pub enum CtrlBody {
    /// Client → NIC.
    Request(CtrlRequest),
    /// NIC → client.
    Response(CtrlResponse),
}

/// One complete control message: header fields + typed body.
#[derive(Debug, Clone)]
pub struct CtrlFrame {
    /// Fabric member index the frame targets (0 on a lone NIC).
    pub member: u16,
    /// Caller-chosen sequence number; responses echo the request's.
    pub seq: u32,
    /// The typed payload.
    pub body: CtrlBody,
}

impl CtrlFrame {
    /// Builds a request frame.
    #[must_use]
    pub fn request(member: u16, seq: u32, req: CtrlRequest) -> CtrlFrame {
        CtrlFrame {
            member,
            seq,
            body: CtrlBody::Request(req),
        }
    }

    /// Builds a response frame.
    #[must_use]
    pub fn response(member: u16, seq: u32, resp: CtrlResponse) -> CtrlFrame {
        CtrlFrame {
            member,
            seq,
            body: CtrlBody::Response(resp),
        }
    }

    /// Serializes the frame to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let opcode = match &self.body {
            CtrlBody::Request(r) => r.opcode(),
            CtrlBody::Response(r) => r.opcode(),
        };
        let mut w = Writer::frame(opcode, self.member, self.seq);
        match &self.body {
            CtrlBody::Request(r) => encode_request(&mut w, r),
            CtrlBody::Response(r) => encode_response(&mut w, r),
        }
        w.finish()
    }

    /// Parses one frame from `bytes`, which must contain exactly one
    /// frame (trailing bytes are an error).
    ///
    /// # Errors
    /// Any malformed, truncated, or out-of-range input returns a
    /// [`DecodeError`]; this function never panics.
    pub fn decode(bytes: &[u8]) -> Result<CtrlFrame, DecodeError> {
        let mut r = Reader::new(bytes);
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u8()?;
        if version != crate::PROTO_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let opcode = r.u8()?;
        let member = r.u16()?;
        let seq = r.u32()?;
        let payload_len = r.u32()? as usize;
        if r.remaining() != payload_len {
            return Err(if r.remaining() < payload_len {
                DecodeError::Truncated
            } else {
                DecodeError::TrailingBytes
            });
        }
        let body = match opcode {
            0x01..=0x07 => CtrlBody::Request(decode_request(opcode, &mut r)?),
            0x81..=0x84 => CtrlBody::Response(decode_response(opcode, &mut r)?),
            other => return Err(DecodeError::BadOpcode(other)),
        };
        if r.remaining() != 0 {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(CtrlFrame { member, seq, body })
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Bytes a frame's buffer starts with: an `Ok`, an `Error` or a
    /// telemetry frame of a few updates is written without growing it.
    const FRAME_START: usize = 256;

    /// A frame's header, its payload length still to come
    /// ([`Writer::finish`]).
    fn frame(opcode: u8, member: u16, seq: u32) -> Writer {
        let mut w = Writer {
            buf: Vec::with_capacity(Writer::FRAME_START),
        };
        w.bytes(&MAGIC);
        w.u8(crate::PROTO_VERSION);
        w.u8(opcode);
        w.u16(member);
        w.u32(seq);
        w.u32(0); // payload_len, patched by `finish`
        w
    }
    /// The frame's wire bytes, the header's payload length filled in.
    fn finish(mut self) -> Vec<u8> {
        let payload_len = u32::try_from(self.buf.len() - HEADER_LEN).expect("payload fits u32");
        self.buf[12..16].copy_from_slice(&payload_len.to_le_bytes());
        self.buf
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    /// Short string: u16 length + UTF-8 bytes.
    fn str_short(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("string fits u16 length");
        self.u16(len);
        self.bytes(s.as_bytes());
    }
    /// Long string: u32 length + UTF-8 bytes (diagnostics payloads).
    fn str_long(&mut self, s: &str) {
        let len = u32::try_from(s.len()).expect("string fits u32 length");
        self.u32(len);
        self.bytes(s.as_bytes());
    }
    fn count(&mut self, n: usize) {
        self.u16(u16::try_from(n).expect("count fits u16"));
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.bytes(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }
    fn i32(&mut self) -> Result<i32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn str_short(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::BadPayload("invalid utf-8"))
    }
    /// A short string naming a vNIC, table, action or program: at most
    /// [`MAX_NAME_LEN`] bytes.
    fn name(&mut self) -> Result<String, DecodeError> {
        let name = self.str_short()?;
        if name.len() > MAX_NAME_LEN {
            return Err(DecodeError::BadPayload("name too long"));
        }
        Ok(name)
    }
    fn str_long(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::BadPayload("invalid utf-8"))
    }
    fn count(&mut self) -> Result<usize, DecodeError> {
        Ok(self.u16()? as usize)
    }
}

// ---------------------------------------------------------------------------
// Request payloads
// ---------------------------------------------------------------------------

fn encode_request(w: &mut Writer, req: &CtrlRequest) {
    match req {
        CtrlRequest::AddVnic(spec) => encode_vnic(w, spec),
        CtrlRequest::RemoveVnic { tenant } => w.u16(tenant.0),
        CtrlRequest::SetRate { tenant, rate } => {
            w.u16(tenant.0);
            encode_rate_opt(w, *rate);
        }
        CtrlRequest::SetWeight { tenant, weight } => {
            w.u16(tenant.0);
            w.u64(*weight);
        }
        CtrlRequest::SetCreditQuota { tenant, quota } => {
            w.u16(tenant.0);
            w.u64(*quota);
        }
        CtrlRequest::SwapProgram(program) => encode_program(w, program),
        CtrlRequest::Subscribe { prefixes } => {
            w.count(prefixes.len());
            for p in prefixes {
                w.str_short(p);
            }
        }
    }
}

fn decode_request(opcode: u8, r: &mut Reader<'_>) -> Result<CtrlRequest, DecodeError> {
    Ok(match opcode {
        0x01 => CtrlRequest::AddVnic(decode_vnic(r)?),
        0x02 => CtrlRequest::RemoveVnic {
            tenant: TenantId(r.u16()?),
        },
        0x03 => {
            let tenant = TenantId(r.u16()?);
            let rate = decode_rate_opt(r)?;
            CtrlRequest::SetRate { tenant, rate }
        }
        0x04 => CtrlRequest::SetWeight {
            tenant: TenantId(r.u16()?),
            weight: r.u64()?,
        },
        0x05 => CtrlRequest::SetCreditQuota {
            tenant: TenantId(r.u16()?),
            quota: r.u64()?,
        },
        0x06 => CtrlRequest::SwapProgram(decode_program(r)?),
        0x07 => {
            let n = r.count()?;
            let mut prefixes = Vec::with_capacity(n);
            for _ in 0..n {
                prefixes.push(r.str_short()?);
            }
            CtrlRequest::Subscribe { prefixes }
        }
        other => return Err(DecodeError::BadOpcode(other)),
    })
}

fn encode_response(w: &mut Writer, resp: &CtrlResponse) {
    match resp {
        CtrlResponse::Ok { epoch } => w.u64(*epoch),
        CtrlResponse::Rejected { findings } => w.str_long(findings),
        CtrlResponse::Error { message } => w.str_long(message),
        CtrlResponse::Telemetry { updates } => write_updates(
            w,
            updates.iter().map(|u| (u.name.as_str(), u.value, u.delta)),
        ),
    }
}

/// A telemetry payload: the update count, then each `(name, value,
/// delta)`.
fn write_updates<'a>(w: &mut Writer, updates: impl Iterator<Item = (&'a str, u64, u64)>) {
    let count_at = w.buf.len();
    w.u16(0); // the count, patched below
    let mut n = 0usize;
    for (name, value, delta) in updates {
        w.str_short(name);
        w.u64(value);
        w.u64(delta);
        n += 1;
    }
    let n = u16::try_from(n).expect("count fits u16");
    w.buf[count_at..count_at + 2].copy_from_slice(&n.to_le_bytes());
}

/// The pushed telemetry frames carrying `updates`, encoded, in order:
/// none for no updates, and a batch beyond the wire's `u16` update
/// count continues in further frames rather than failing to encode.
pub(crate) fn encode_telemetry<'a>(
    member: u16,
    updates: impl Iterator<Item = (&'a str, u64, u64)>,
) -> impl Iterator<Item = Vec<u8>> {
    let mut updates = updates.peekable();
    std::iter::from_fn(move || {
        updates.peek()?;
        let mut w = Writer::frame(0x84, member, 0);
        write_updates(&mut w, updates.by_ref().take(usize::from(u16::MAX)));
        Some(w.finish())
    })
}

fn decode_response(opcode: u8, r: &mut Reader<'_>) -> Result<CtrlResponse, DecodeError> {
    Ok(match opcode {
        0x81 => CtrlResponse::Ok { epoch: r.u64()? },
        0x82 => CtrlResponse::Rejected {
            findings: r.str_long()?,
        },
        0x83 => CtrlResponse::Error {
            message: r.str_long()?,
        },
        0x84 => {
            let n = r.count()?;
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                updates.push(MetricUpdate {
                    name: r.str_short()?,
                    value: r.u64()?,
                    delta: r.u64()?,
                });
            }
            CtrlResponse::Telemetry { updates }
        }
        other => return Err(DecodeError::BadOpcode(other)),
    })
}

// ---------------------------------------------------------------------------
// VNicSpec / RateSpec codec
// ---------------------------------------------------------------------------

fn encode_rate_opt(w: &mut Writer, rate: Option<RateSpec>) {
    match rate {
        None => w.u8(0),
        Some(r) => {
            w.u8(1);
            w.u64(r.num);
            w.u64(r.den);
            w.u64(r.burst);
        }
    }
}

fn decode_rate_opt(r: &mut Reader<'_>) -> Result<Option<RateSpec>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let num = r.u64()?;
            let den = r.u64()?;
            let burst = r.u64()?;
            // RateSpec::per_cycles panics on zeros; the wire rejects
            // them instead so a hostile frame cannot crash the NIC.
            if num == 0 || den == 0 || burst == 0 {
                return Err(DecodeError::BadPayload("zero rate component"));
            }
            Ok(Some(RateSpec::per_cycles(num, den, burst)))
        }
        _ => Err(DecodeError::BadPayload("bad rate tag")),
    }
}

fn encode_vnic(w: &mut Writer, spec: &VNicSpec) {
    w.u16(spec.tenant.0);
    w.str_short(&spec.name);
    w.u64(spec.weight);
    encode_rate_opt(w, spec.rate);
    w.u64(spec.credit_quota);
    w.count(spec.entitlements.len());
    for e in &spec.entitlements {
        w.u16(e.0);
    }
    w.count(spec.chains.len());
    for chain in &spec.chains {
        w.count(chain.len());
        for hop in chain {
            w.u16(hop.0);
        }
    }
}

fn decode_vnic(r: &mut Reader<'_>) -> Result<VNicSpec, DecodeError> {
    use packet::EngineId;
    let tenant = TenantId(r.u16()?);
    let name = r.name()?;
    let weight = r.u64()?;
    let rate = decode_rate_opt(r)?;
    let credit_quota = r.u64()?;
    let n_ent = r.count()?;
    let mut entitlements = Vec::with_capacity(n_ent);
    for _ in 0..n_ent {
        entitlements.push(EngineId(r.u16()?));
    }
    let n_chains = r.count()?;
    let mut chains = Vec::with_capacity(n_chains);
    for _ in 0..n_chains {
        let n_hops = r.count()?;
        let mut chain = Vec::with_capacity(n_hops);
        for _ in 0..n_hops {
            chain.push(EngineId(r.u16()?));
        }
        chains.push(chain);
    }
    Ok(VNicSpec {
        tenant,
        name,
        weight,
        rate,
        credit_quota,
        entitlements,
        chains,
    })
}

// ---------------------------------------------------------------------------
// RmtProgram codec
// ---------------------------------------------------------------------------

fn encode_layer(w: &mut Writer, layer: Layer) {
    let idx = LAYERS
        .iter()
        .position(|l| *l == layer)
        .expect("layer in catalog");
    w.u8(idx as u8);
}

fn decode_layer(r: &mut Reader<'_>) -> Result<Layer, DecodeError> {
    let idx = r.u8()? as usize;
    LAYERS
        .get(idx)
        .copied()
        .ok_or(DecodeError::BadPayload("layer index out of range"))
}

fn encode_field(w: &mut Writer, field: Field) {
    w.u8(field as u8);
}

fn decode_field(r: &mut Reader<'_>) -> Result<Field, DecodeError> {
    let idx = r.u8()? as usize;
    Field::ALL
        .get(idx)
        .copied()
        .ok_or(DecodeError::BadPayload("field index out of range"))
}

fn encode_slack(w: &mut Writer, slack: &SlackExpr) {
    match slack {
        SlackExpr::Const(v) => {
            w.u8(0);
            w.u32(*v);
        }
        SlackExpr::Bulk => w.u8(1),
        SlackExpr::ByPriority { latency, normal } => {
            w.u8(2);
            w.u32(*latency);
            w.u32(*normal);
        }
    }
}

fn decode_slack(r: &mut Reader<'_>) -> Result<SlackExpr, DecodeError> {
    Ok(match r.u8()? {
        0 => SlackExpr::Const(r.u32()?),
        1 => SlackExpr::Bulk,
        2 => SlackExpr::ByPriority {
            latency: r.u32()?,
            normal: r.u32()?,
        },
        _ => return Err(DecodeError::BadPayload("bad slack tag")),
    })
}

fn encode_action(w: &mut Writer, action: &Action) {
    w.str_short(action.name());
    w.count(action.primitives().len());
    for p in action.primitives() {
        match p {
            Primitive::NoOp => w.u8(0),
            Primitive::SetField(field, v) => {
                w.u8(1);
                encode_field(w, *field);
                w.u64(*v);
            }
            Primitive::AddField(field, v) => {
                w.u8(2);
                encode_field(w, *field);
                w.u64(*v);
            }
            Primitive::CopyField { from, to } => {
                w.u8(3);
                encode_field(w, *from);
                encode_field(w, *to);
            }
            Primitive::PushHop { engine, slack } => {
                w.u8(4);
                w.u16(engine.0);
                encode_slack(w, slack);
            }
            Primitive::ClearChain => w.u8(5),
            Primitive::SetPriority(p) => {
                w.u8(6);
                w.u8(priority_code(*p) as u8);
            }
            Primitive::Drop => w.u8(7),
            Primitive::Recirculate => w.u8(8),
        }
    }
}

fn decode_action(r: &mut Reader<'_>) -> Result<Action, DecodeError> {
    use packet::EngineId;
    let name = r.name()?;
    let n = r.count()?;
    let mut prims = Vec::with_capacity(n);
    for _ in 0..n {
        prims.push(match r.u8()? {
            0 => Primitive::NoOp,
            1 => Primitive::SetField(decode_field(r)?, r.u64()?),
            2 => Primitive::AddField(decode_field(r)?, r.u64()?),
            3 => Primitive::CopyField {
                from: decode_field(r)?,
                to: decode_field(r)?,
            },
            4 => Primitive::PushHop {
                engine: EngineId(r.u16()?),
                slack: decode_slack(r)?,
            },
            5 => Primitive::ClearChain,
            6 => {
                let code = r.u8()?;
                if code > 2 {
                    return Err(DecodeError::BadPayload("bad priority code"));
                }
                Primitive::SetPriority(priority_from_code(u64::from(code)))
            }
            7 => Primitive::Drop,
            8 => Primitive::Recirculate,
            _ => return Err(DecodeError::BadPayload("bad primitive tag")),
        });
    }
    Ok(Action::named(name, prims))
}

fn encode_key(w: &mut Writer, key: &MatchKey) {
    match key {
        MatchKey::Exact(values) => {
            for v in values {
                w.u64(*v);
            }
        }
        MatchKey::Lpm {
            value,
            prefix_len,
            width_bits,
        } => {
            w.u64(*value);
            w.u8(*prefix_len);
            w.u8(*width_bits);
        }
        MatchKey::Ternary(pairs) => {
            for (v, m) in pairs {
                w.u64(*v);
                w.u64(*m);
            }
        }
    }
}

/// Decodes a match key whose *shape is dictated by the table's kind*,
/// so `Table::insert`'s arity/shape panics are unrepresentable.
fn decode_key(r: &mut Reader<'_>, kind: &MatchKind) -> Result<MatchKey, DecodeError> {
    Ok(match kind {
        MatchKind::Exact(fields) => {
            let mut values = Vec::with_capacity(fields.len());
            for _ in 0..fields.len() {
                values.push(r.u64()?);
            }
            MatchKey::Exact(values)
        }
        MatchKind::Lpm(_) => {
            let value = r.u64()?;
            let prefix_len = r.u8()?;
            let width_bits = r.u8()?;
            if width_bits == 0 || width_bits > 64 {
                return Err(DecodeError::BadPayload("lpm width out of range"));
            }
            if prefix_len > width_bits {
                return Err(DecodeError::BadPayload("lpm prefix wider than field"));
            }
            MatchKey::Lpm {
                value,
                prefix_len,
                width_bits,
            }
        }
        MatchKind::Ternary(fields) => {
            let mut pairs = Vec::with_capacity(fields.len());
            for _ in 0..fields.len() {
                pairs.push((r.u64()?, r.u64()?));
            }
            MatchKey::Ternary(pairs)
        }
    })
}

fn encode_kind(w: &mut Writer, kind: &MatchKind) {
    match kind {
        MatchKind::Exact(fields) => {
            w.u8(0);
            w.u8(fields.len() as u8);
            for f in fields {
                encode_field(w, *f);
            }
        }
        MatchKind::Lpm(field) => {
            w.u8(1);
            encode_field(w, *field);
        }
        MatchKind::Ternary(fields) => {
            w.u8(2);
            w.u8(fields.len() as u8);
            for f in fields {
                encode_field(w, *f);
            }
        }
    }
}

fn decode_kind(r: &mut Reader<'_>) -> Result<MatchKind, DecodeError> {
    Ok(match r.u8()? {
        0 => {
            let n = r.u8()? as usize;
            if n == 0 {
                return Err(DecodeError::BadPayload("empty match field list"));
            }
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(decode_field(r)?);
            }
            MatchKind::Exact(fields)
        }
        1 => MatchKind::Lpm(decode_field(r)?),
        2 => {
            let n = r.u8()? as usize;
            if n == 0 {
                return Err(DecodeError::BadPayload("empty match field list"));
            }
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(decode_field(r)?);
            }
            MatchKind::Ternary(fields)
        }
        _ => return Err(DecodeError::BadPayload("bad match-kind tag")),
    })
}

fn encode_table(w: &mut Writer, table: &Table) {
    w.str_short(table.name());
    encode_kind(w, table.kind());
    encode_action(w, table.default_action());
    w.count(table.entries().len());
    for entry in table.entries() {
        encode_key(w, &entry.key);
        w.i32(entry.priority);
        encode_action(w, &entry.action);
    }
}

fn decode_table(r: &mut Reader<'_>) -> Result<Table, DecodeError> {
    let name = r.name()?;
    let kind = decode_kind(r)?;
    let default_action = decode_action(r)?;
    let mut table = Table::new(name, kind, default_action);
    let n = r.count()?;
    for _ in 0..n {
        let key = decode_key(r, table.kind())?;
        let priority = r.i32()?;
        let action = decode_action(r)?;
        table.insert(TableEntry {
            key,
            priority,
            action,
        });
    }
    Ok(table)
}

fn encode_program(w: &mut Writer, program: &RmtProgram) {
    w.str_short(program.name());
    encode_layer(w, program.parser().start());
    let edges: Vec<(Layer, u64, Layer)> = program.parser().edges().collect();
    w.count(edges.len());
    for (from, value, next) in edges {
        encode_layer(w, from);
        w.u64(value);
        encode_layer(w, next);
    }
    w.count(program.tables().len());
    for table in program.tables() {
        encode_table(w, table);
    }
}

fn decode_program(r: &mut Reader<'_>) -> Result<RmtProgram, DecodeError> {
    let name = r.name()?;
    let start = decode_layer(r)?;
    let mut parser = ParseGraph::starting_at(start);
    let n_edges = r.count()?;
    for _ in 0..n_edges {
        let from = decode_layer(r)?;
        let value = r.u64()?;
        let next = decode_layer(r)?;
        parser = parser.with_edge(from, value, next);
    }
    let n_tables = r.count()?;
    // ProgramBuilder::build panics on zero stages; reject on the wire.
    if n_tables == 0 {
        return Err(DecodeError::BadPayload("program with zero tables"));
    }
    let mut builder = ProgramBuilder::new(name, parser);
    for _ in 0..n_tables {
        builder = builder.stage(decode_table(r)?);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::{EngineId, Priority};

    fn sample_program() -> RmtProgram {
        let mut steer = Table::new(
            "steer",
            MatchKind::Exact(vec![Field::L4DstPort]),
            Action::named("to-host", vec![Primitive::NoOp]),
        );
        steer.insert(TableEntry {
            key: MatchKey::Exact(vec![4791]),
            priority: 0,
            action: Action::named(
                "to-crypto",
                vec![
                    Primitive::PushHop {
                        engine: EngineId(1),
                        slack: SlackExpr::ByPriority {
                            latency: 8,
                            normal: 64,
                        },
                    },
                    Primitive::SetPriority(Priority::Latency),
                ],
            ),
        });
        let mut routes = Table::new(
            "routes",
            MatchKind::Lpm(Field::IpDst),
            Action::named("default", vec![Primitive::NoOp]),
        );
        routes.insert(TableEntry {
            key: MatchKey::Lpm {
                value: 0x0a00_0000,
                prefix_len: 8,
                width_bits: 32,
            },
            priority: 1,
            action: Action::named("drop-martians", vec![Primitive::Drop]),
        });
        let mut acl = Table::new(
            "acl",
            MatchKind::Ternary(vec![Field::IpSrc, Field::IpProto]),
            Action::named("pass", vec![Primitive::NoOp]),
        );
        acl.insert(TableEntry {
            key: MatchKey::Ternary(vec![(0x7f00_0001, 0xffff_ffff), (6, 0xff)]),
            priority: 10,
            action: Action::named("recirc", vec![Primitive::Recirculate]),
        });
        ProgramBuilder::new("ctl-sample", ParseGraph::standard(11211))
            .stage(steer)
            .stage(routes)
            .stage(acl)
            .build()
    }

    fn sample_vnic() -> VNicSpec {
        VNicSpec::new(TenantId(7), "web-frontend", 4)
            .rate(RateSpec::per_cycles(1, 3, 16))
            .credit_quota(24)
            .entitled_to([EngineId(1), EngineId(2)])
            .chain([EngineId(1), EngineId(2)])
    }

    fn roundtrip(frame: &CtrlFrame) -> CtrlFrame {
        let bytes = frame.encode();
        let decoded = CtrlFrame::decode(&bytes).expect("frame decodes");
        // Re-encoding must reproduce the wire bytes exactly; this is
        // how we compare payloads whose types (RmtProgram) carry no
        // PartialEq.
        assert_eq!(decoded.encode(), bytes);
        decoded
    }

    #[test]
    fn header_fields_echoed() {
        let f = roundtrip(&CtrlFrame::request(
            3,
            0xdead_beef,
            CtrlRequest::RemoveVnic {
                tenant: TenantId(9),
            },
        ));
        assert_eq!(f.member, 3);
        assert_eq!(f.seq, 0xdead_beef);
        match f.body {
            CtrlBody::Request(CtrlRequest::RemoveVnic { tenant }) => {
                assert_eq!(tenant, TenantId(9));
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn add_vnic_roundtrip() {
        let f = roundtrip(&CtrlFrame::request(
            0,
            1,
            CtrlRequest::AddVnic(sample_vnic()),
        ));
        match f.body {
            CtrlBody::Request(CtrlRequest::AddVnic(spec)) => assert_eq!(spec, sample_vnic()),
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn rate_weight_quota_roundtrip() {
        for req in [
            CtrlRequest::SetRate {
                tenant: TenantId(1),
                rate: Some(RateSpec::per_cycles(2, 5, 8)),
            },
            CtrlRequest::SetRate {
                tenant: TenantId(1),
                rate: None,
            },
            CtrlRequest::SetWeight {
                tenant: TenantId(2),
                weight: 17,
            },
            CtrlRequest::SetCreditQuota {
                tenant: TenantId(3),
                quota: 96,
            },
            CtrlRequest::Subscribe {
                prefixes: vec!["tenancy.".into(), "perf.layer.".into()],
            },
        ] {
            roundtrip(&CtrlFrame::request(0, 42, req));
        }
    }

    #[test]
    fn program_roundtrip_bytes_identical() {
        roundtrip(&CtrlFrame::request(
            1,
            7,
            CtrlRequest::SwapProgram(sample_program()),
        ));
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            CtrlResponse::Ok { epoch: 3 },
            CtrlResponse::Rejected {
                findings: "{\"errors\":1}".into(),
            },
            CtrlResponse::Error {
                message: "no such tenant".into(),
            },
            CtrlResponse::Telemetry {
                updates: vec![MetricUpdate {
                    name: "tenancy.web.released".into(),
                    value: 120,
                    delta: 12,
                }],
            },
        ] {
            roundtrip(&CtrlFrame::response(0, 9, resp));
        }
    }

    #[test]
    fn rejects_bad_magic_version_opcode() {
        let mut bytes =
            CtrlFrame::request(0, 0, CtrlRequest::Subscribe { prefixes: vec![] }).encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(CtrlFrame::decode(&bad).unwrap_err(), DecodeError::BadMagic);
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert_eq!(
            CtrlFrame::decode(&bad).unwrap_err(),
            DecodeError::BadVersion(99)
        );
        bytes[5] = 0x55;
        assert_eq!(
            CtrlFrame::decode(&bytes).unwrap_err(),
            DecodeError::BadOpcode(0x55)
        );
    }

    #[test]
    fn rejects_truncation_and_trailing() {
        let bytes = CtrlFrame::request(0, 1, CtrlRequest::AddVnic(sample_vnic())).encode();
        for cut in 0..bytes.len() {
            assert!(
                CtrlFrame::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            CtrlFrame::decode(&long).unwrap_err(),
            DecodeError::TrailingBytes
        );
    }

    #[test]
    fn rejects_zero_rate_on_the_wire() {
        // Hand-build a SetRate payload with den == 0; the constructor
        // would panic, the decoder must not.
        let good = CtrlFrame::request(
            0,
            1,
            CtrlRequest::SetRate {
                tenant: TenantId(1),
                rate: Some(RateSpec::per_cycles(1, 1, 1)),
            },
        )
        .encode();
        let mut bad = good.clone();
        // payload: tenant u16 at 16..18, tag at 18, num at 19..27,
        // den at 27..35
        bad[27..35].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            CtrlFrame::decode(&bad).unwrap_err(),
            DecodeError::BadPayload("zero rate component")
        );
    }

    #[test]
    fn rejects_names_beyond_the_limit() {
        let named = |len: usize| {
            let mut vnic = sample_vnic();
            vnic.name = "n".repeat(len);
            CtrlFrame::request(0, 1, CtrlRequest::AddVnic(vnic)).encode()
        };
        roundtrip(&CtrlFrame::decode(&named(MAX_NAME_LEN)).expect("at the limit"));
        // The encoder will carry anything that fits a u16; the decoder
        // is where outside bytes enter, and it refuses.
        for len in [MAX_NAME_LEN + 1, 65_520] {
            assert_eq!(
                CtrlFrame::decode(&named(len)).unwrap_err(),
                DecodeError::BadPayload("name too long")
            );
        }
        // Table names reach `rmt.stage.<i>.<table>.hits` the same way.
        let long_table = Table::new(
            "t".repeat(MAX_NAME_LEN + 1),
            MatchKind::Exact(vec![Field::L4DstPort]),
            Action::named("a", vec![Primitive::NoOp]),
        );
        let program = ProgramBuilder::new("p", ParseGraph::standard(11211))
            .stage(long_table)
            .build();
        let bytes = CtrlFrame::request(0, 1, CtrlRequest::SwapProgram(program)).encode();
        assert_eq!(
            CtrlFrame::decode(&bytes).unwrap_err(),
            DecodeError::BadPayload("name too long")
        );
    }

    #[test]
    fn telemetry_batches_split_at_the_wire_count_limit() {
        let updates = |n: usize| -> Vec<MetricUpdate> {
            (0..n)
                .map(|i| MetricUpdate {
                    name: format!("c{i}"),
                    value: i as u64,
                    delta: 1,
                })
                .collect()
        };
        let frames_of = |updates: &[MetricUpdate]| -> Vec<Vec<u8>> {
            let borrowed = updates.iter().map(|u| (u.name.as_str(), u.value, u.delta));
            encode_telemetry(3, borrowed).collect()
        };
        assert!(frames_of(&[]).is_empty());
        let max = usize::from(u16::MAX);
        for (n, frames) in [(1, 1), (max, 1), (max + 1, 2), (2 * max + 7, 3)] {
            let mut carried = Vec::new();
            let mut count = 0;
            for raw in frames_of(&updates(n)) {
                count += 1;
                // Every frame decodes (no count overflow)…
                let frame = CtrlFrame::decode(&raw).expect("decodes");
                assert_eq!((frame.member, frame.seq), (3, 0));
                match frame.body {
                    CtrlBody::Response(CtrlResponse::Telemetry { updates }) => {
                        assert!(!updates.is_empty() && updates.len() <= max);
                        // …to what `CtrlFrame::encode` writes for it.
                        let again = CtrlResponse::Telemetry {
                            updates: updates.clone(),
                        };
                        assert_eq!(CtrlFrame::response(3, 0, again).encode(), raw);
                        carried.extend(updates);
                    }
                    other => panic!("wrong body: {other:?}"),
                }
            }
            assert_eq!(count, frames, "{n} updates");
            assert_eq!(carried, updates(n), "order and content survive the split");
        }
    }

    #[test]
    fn rejects_zero_stage_program_and_bad_lpm() {
        let bytes = CtrlFrame::request(0, 1, CtrlRequest::SwapProgram(sample_program())).encode();
        // Corrupt every single byte in turn; decode must never panic.
        for i in 0..bytes.len() {
            for delta in [1u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] = bad[i].wrapping_add(delta);
                let _ = CtrlFrame::decode(&bad);
            }
        }
    }
}
