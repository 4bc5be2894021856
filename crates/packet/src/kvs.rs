//! The key-value-store application protocol of the paper's running
//! example (§2.2, §3.2): a multi-tenant, geodistributed DynamoDB-style
//! store whose hot-path operations the NIC can serve.
//!
//! Requests ride as UDP payloads. The format is deliberately simple
//! enough for an RMT parser to walk (fixed-offset opcode and key) yet
//! rich enough to exercise every path in the §3.2 walk-through: GETs
//! that hit the on-NIC cache and return via RDMA, GETs that miss and go
//! to the host over DMA, SETs appended to a host log, and WAN traffic
//! wrapped in ESP.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvsOp {
    /// Read a value.
    Get,
    /// Write a value.
    Set,
    /// Delete a key.
    Del,
    /// Response carrying a value (or empty on miss/ack).
    Reply,
}

impl KvsOp {
    fn to_byte(self) -> u8 {
        match self {
            KvsOp::Get => 1,
            KvsOp::Set => 2,
            KvsOp::Del => 3,
            KvsOp::Reply => 4,
        }
    }

    fn from_byte(b: u8) -> Option<KvsOp> {
        match b {
            1 => Some(KvsOp::Get),
            2 => Some(KvsOp::Set),
            3 => Some(KvsOp::Del),
            4 => Some(KvsOp::Reply),
            _ => None,
        }
    }
}

impl fmt::Display for KvsOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KvsOp::Get => "GET",
            KvsOp::Set => "SET",
            KvsOp::Del => "DEL",
            KvsOp::Reply => "REPLY",
        };
        f.write_str(s)
    }
}

/// Errors decoding a KVS request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvsError {
    /// Payload shorter than the fixed request header.
    Truncated,
    /// Unknown opcode byte.
    BadOp(u8),
    /// Value length field exceeds the remaining payload.
    BadValueLen,
}

impl fmt::Display for KvsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvsError::Truncated => f.write_str("kvs request truncated"),
            KvsError::BadOp(b) => write!(f, "kvs: unknown opcode {b}"),
            KvsError::BadValueLen => f.write_str("kvs: value length exceeds payload"),
        }
    }
}

impl std::error::Error for KvsError {}

/// A KVS request or reply.
///
/// Wire layout (big-endian):
/// `op:u8 | tenant:u16 | request_id:u32 | key:u64 | value_len:u16 | value`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvsRequest {
    /// Operation.
    pub op: KvsOp,
    /// Tenant issuing the request (multi-tenancy is central to §2.2).
    pub tenant: u16,
    /// Correlates replies with requests at the client.
    pub request_id: u32,
    /// 64-bit key (workloads draw these from a Zipf distribution).
    pub key: u64,
    /// Value bytes (empty for GET/DEL and for miss replies).
    pub value: Bytes,
}

impl KvsRequest {
    /// Fixed header size before the value bytes.
    pub const HEADER_SIZE: usize = 1 + 2 + 4 + 8 + 2;

    /// Builds a GET.
    #[must_use]
    pub fn get(tenant: u16, request_id: u32, key: u64) -> KvsRequest {
        KvsRequest {
            op: KvsOp::Get,
            tenant,
            request_id,
            key,
            value: Bytes::new(),
        }
    }

    /// Builds a SET.
    #[must_use]
    pub fn set(tenant: u16, request_id: u32, key: u64, value: Bytes) -> KvsRequest {
        KvsRequest {
            op: KvsOp::Set,
            tenant,
            request_id,
            key,
            value,
        }
    }

    /// Builds the reply to this request carrying `value`.
    #[must_use]
    pub fn reply_with(&self, value: Bytes) -> KvsRequest {
        KvsRequest {
            op: KvsOp::Reply,
            tenant: self.tenant,
            request_id: self.request_id,
            key: self.key,
            value,
        }
    }

    /// Total encoded size.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        Self::HEADER_SIZE + self.value.len()
    }

    /// The longest value the 16-bit length field carries.
    pub const MAX_VALUE: usize = u16::MAX as usize;

    /// Encodes to bytes.
    ///
    /// # Panics
    /// Panics if the value is longer than [`KvsRequest::MAX_VALUE`]
    /// bytes: its length would not fit the wire's 16-bit field.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.wire_size());
        out.put_u8(self.op.to_byte());
        out.put_u16(self.tenant);
        out.put_u32(self.request_id);
        out.put_u64(self.key);
        out.put_u16(u16::try_from(self.value.len()).expect("a KVS value fits its 16-bit length"));
        out.put_slice(&self.value);
        out.freeze()
    }

    /// Decodes from bytes.
    pub fn decode(data: &[u8]) -> Result<KvsRequest, KvsError> {
        if data.len() < Self::HEADER_SIZE {
            return Err(KvsError::Truncated);
        }
        let op = KvsOp::from_byte(data[0]).ok_or(KvsError::BadOp(data[0]))?;
        let tenant = u16::from_be_bytes([data[1], data[2]]);
        let request_id = u32::from_be_bytes([data[3], data[4], data[5], data[6]]);
        let key = u64::from_be_bytes([
            data[7], data[8], data[9], data[10], data[11], data[12], data[13], data[14],
        ]);
        let value_len = u16::from_be_bytes([data[15], data[16]]) as usize;
        let rest = &data[Self::HEADER_SIZE..];
        if rest.len() < value_len {
            return Err(KvsError::BadValueLen);
        }
        Ok(KvsRequest {
            op,
            tenant,
            request_id,
            key,
            value: Bytes::copy_from_slice(&rest[..value_len]),
        })
    }
}

impl fmt::Display for KvsRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} t{} #{} key={:#x} ({}B)",
            self.op,
            self.tenant,
            self.request_id,
            self.key,
            self.value.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_roundtrip() {
        let r = KvsRequest::get(3, 77, 0xdead_beef_cafe_f00d);
        let bytes = r.encode();
        assert_eq!(bytes.len(), KvsRequest::HEADER_SIZE);
        assert_eq!(KvsRequest::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn set_roundtrip_with_value() {
        let r = KvsRequest::set(1, 2, 42, Bytes::from_static(b"hello world"));
        let bytes = r.encode();
        assert_eq!(bytes.len(), KvsRequest::HEADER_SIZE + 11);
        let d = KvsRequest::decode(&bytes).unwrap();
        assert_eq!(d, r);
        assert_eq!(&d.value[..], b"hello world");
    }

    #[test]
    fn the_longest_value_roundtrips() {
        let r = KvsRequest::set(1, 2, 42, Bytes::from(vec![7; KvsRequest::MAX_VALUE]));
        assert_eq!(KvsRequest::decode(&r.encode()).unwrap(), r);
    }

    /// A value one byte past the length field's range must not encode
    /// as a request with a wrapped (here: empty) value.
    #[test]
    #[should_panic(expected = "a KVS value fits its 16-bit length")]
    fn a_value_past_the_length_field_does_not_encode() {
        let r = KvsRequest::set(1, 2, 42, Bytes::from(vec![7; KvsRequest::MAX_VALUE + 1]));
        let _ = r.encode();
    }

    #[test]
    fn reply_preserves_correlation() {
        let req = KvsRequest::get(5, 99, 1234);
        let rep = req.reply_with(Bytes::from_static(b"v"));
        assert_eq!(rep.op, KvsOp::Reply);
        assert_eq!(rep.tenant, 5);
        assert_eq!(rep.request_id, 99);
        assert_eq!(rep.key, 1234);
    }

    #[test]
    fn decode_errors() {
        assert_eq!(KvsRequest::decode(&[1, 2]), Err(KvsError::Truncated));
        let mut bad_op = KvsRequest::get(0, 0, 0).encode().to_vec();
        bad_op[0] = 200;
        assert_eq!(KvsRequest::decode(&bad_op), Err(KvsError::BadOp(200)));
        let mut bad_len = KvsRequest::get(0, 0, 0).encode().to_vec();
        bad_len[15] = 0xff;
        bad_len[16] = 0xff;
        assert_eq!(KvsRequest::decode(&bad_len), Err(KvsError::BadValueLen));
    }

    #[test]
    fn extra_trailing_bytes_beyond_value_len_are_ignored() {
        // A frame may be padded to the Ethernet minimum; decode honors
        // value_len, not the payload end.
        let r = KvsRequest::set(1, 1, 1, Bytes::from_static(b"ab"));
        let mut bytes = r.encode().to_vec();
        bytes.extend_from_slice(&[0u8; 20]); // padding
        assert_eq!(KvsRequest::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn all_ops_roundtrip_through_byte() {
        for op in [KvsOp::Get, KvsOp::Set, KvsOp::Del, KvsOp::Reply] {
            assert_eq!(KvsOp::from_byte(op.to_byte()), Some(op));
        }
        assert_eq!(KvsOp::from_byte(0), None);
    }

    #[test]
    fn display() {
        let r = KvsRequest::get(3, 7, 0x10);
        assert_eq!(r.to_string(), "GET t3 #7 key=0x10 (0B)");
        assert!(KvsError::BadOp(9).to_string().contains('9'));
        assert_eq!(KvsError::Truncated.to_string(), "kvs request truncated");
        assert!(KvsError::BadValueLen.to_string().contains("length"));
    }
}
